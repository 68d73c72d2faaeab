(* IBM CoreConnect On-chip Peripheral Bus (§2.3.2).

   Low-bandwidth 32-bit interface bridged off the PLB. Splice supports only
   simple reads and writes on the OPB — users needing DMA or bursts are
   expected to target the PLB instead (§2.3.2 "On-chip Peripheral Bus"). The
   bridge adds latency to every transaction. *)

open Splice_syntax

let caps =
  {
    Bus_caps.name = "opb";
    widths = [ 32 ];
    memory_mapped = true;
    supports_burst = false;
    supports_dma = false;
    max_burst_words = 1;
    dma_max_bytes = 0;
    pseudo_async = true;
    supports_interrupts = false;
  }

let engine_config =
  {
    Adapter_engine.name = "opb";
    setup_cycles = 3; (* PLB arbitration + OPB bridge + address phase *)
    write_word_gap = 1;
    read_word_gap = 1;
    teardown_cycles = 1;
    strictly_sync = false;
    dma_setup_transactions = 0;
  }

let wait_mode = `Null
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: OPB <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%
-- The OPB adapter supports simple single-word reads and writes only;
-- burst and DMA traffic should target the PLB instead (§2.3.2).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_opb_interface is
  generic (
    C_BASEADDR : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH   : integer := %BUS_WIDTH%
  );
  port (
    OPB_Clk     : in  std_logic;
    OPB_Rst     : in  std_logic;
    OPB_Select  : in  std_logic;
    OPB_RNW     : in  std_logic;
    OPB_ABus    : in  std_logic_vector(31 downto 0);
    OPB_DBus    : in  std_logic_vector(C_DWIDTH-1 downto 0);
    Sln_DBus    : out std_logic_vector(C_DWIDTH-1 downto 0);
    Sln_XferAck : out std_logic;
    -- SIS side
    SIS_DATA_IN        : out std_logic_vector(C_DWIDTH-1 downto 0);
    SIS_DATA_IN_VALID  : out std_logic;
    SIS_IO_ENABLE      : out std_logic;
    SIS_FUNC_ID        : out std_logic_vector(%FUNC_ID_WIDTH%-1 downto 0);
    SIS_DATA_OUT       : in  std_logic_vector(C_DWIDTH-1 downto 0);
    SIS_DATA_OUT_VALID : in  std_logic;
    SIS_IO_DONE        : in  std_logic;
    SIS_CALC_DONE      : in  std_logic_vector(%CALC_DONE_WIDTH%-1 downto 0);
    SIS_RST            : out std_logic
  );
end entity;

architecture rtl of %COMP_NAME%_opb_interface is
  signal addr_hit : std_logic;
  signal selected : std_logic;
begin
  SIS_RST  <= OPB_Rst;
  addr_hit <= '1' when OPB_ABus(31 downto 12) = C_BASEADDR(31 downto 12) else '0';
  selected <= OPB_Select and addr_hit;

  -- word offset within the device's address window selects the function
  SIS_FUNC_ID <= OPB_ABus(%FUNC_ID_WIDTH%+1 downto 2);

  SIS_IO_ENABLE     <= selected;
  SIS_DATA_IN       <= OPB_DBus;
  SIS_DATA_IN_VALID <= selected and not OPB_RNW;

  Sln_DBus    <= SIS_DATA_OUT when unsigned(SIS_FUNC_ID) /= 0
                 else std_logic_vector(resize(unsigned(SIS_CALC_DONE), C_DWIDTH));
  Sln_XferAck <= SIS_IO_DONE;
end architecture;
|}

let extra_markers =
  [
    ( "CALC_DONE_WIDTH",
      fun (spec : Spec.t) -> Splice_hdl.Emit.int_to_string (max 1 spec.total_instances) );
  ]

let driver_header (spec : Spec.t) =
  String.concat ""
    [
      {|/* splice_lib.h -- OPB transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * The OPB has no native burst support, so the double/quad macros are
 * redefined as sequences of single-word operations (§6.1.1). */
#ifndef SPLICE_LIB_OPB_H
#define SPLICE_LIB_OPB_H

#include <stdint.h>

#define SPLICE_BASE_ADDR  0x|};
      Spec.base_address_hex spec;
      {|UL
#define SET_ADDRESS(id)   (SPLICE_BASE_ADDR + ((uint32_t)(id) * 4u))

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
#define WRITE_DOUBLE(addr, src) do { /* no burst: 2 singles */ \
  WRITE_SINGLE((addr), (const uint32_t *)(src));               \
  WRITE_SINGLE((addr), (const uint32_t *)(src) + 1); } while (0)
#define WRITE_QUAD(addr, src) do { /* no burst: 4 singles */ \
  WRITE_DOUBLE((addr), (const uint32_t *)(src));             \
  WRITE_DOUBLE((addr), (const uint32_t *)(src) + 2); } while (0)

#define READ_SINGLE(addr, dst) \
  (*(uint32_t *)(dst) = *(volatile uint32_t *)(addr))
#define READ_DOUBLE(addr, dst) do { \
  READ_SINGLE((addr), (uint32_t *)(dst));       \
  READ_SINGLE((addr), (uint32_t *)(dst) + 1); } while (0)
#define READ_QUAD(addr, dst) do { \
  READ_DOUBLE((addr), (uint32_t *)(dst));       \
  READ_DOUBLE((addr), (uint32_t *)(dst) + 2); } while (0)

#define WAIT_FOR_RESULTS(addr) ((void)0) /* pseudo-asynchronous */

/* DMA unsupported on the OPB adapter (§2.3.2) */

#endif /* SPLICE_LIB_OPB_H */
|};
    ]
