(* OpenCores Wishbone interconnect (§10.2 future work — implemented).

   Wishbone B4 "classic" cycles: pseudo-asynchronous (the slave stretches
   cycles with ACK_O), memory-mapped, 32-bit, with registered-feedback burst
   cycles (CTI/BTE) but no standardised DMA engine. A popular royalty-free
   alternative to AMBA/CoreConnect in open-source SoCs. *)

open Splice_syntax

let caps =
  {
    Bus_caps.name = "wishbone";
    widths = [ 32 ];
    memory_mapped = true;
    supports_burst = true;
    supports_dma = false;
    max_burst_words = 8; (* registered-feedback incrementing bursts *)
    dma_max_bytes = 0;
    pseudo_async = true;
    supports_interrupts = false;
  }

let engine_config =
  {
    Adapter_engine.name = "wishbone";
    setup_cycles = 1; (* CYC/STB assertion, single shared interconnect *)
    write_word_gap = 0;
    read_word_gap = 0;
    teardown_cycles = 1; (* CYC release between classic cycles *)
    strictly_sync = false;
    dma_setup_transactions = 0;
  }

let wait_mode = `Null
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: Wishbone B4 <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%
-- Classic cycles with slave-stretched ACK; CTI-qualified bursts.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_wishbone_interface is
  generic (
    C_BASEADDR : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH   : integer := %BUS_WIDTH%
  );
  port (
    CLK_I  : in  std_logic;
    RST_I  : in  std_logic;
    CYC_I  : in  std_logic;
    STB_I  : in  std_logic;
    WE_I   : in  std_logic;
    CTI_I  : in  std_logic_vector(2 downto 0);  -- cycle type (burst) id
    ADR_I  : in  std_logic_vector(31 downto 0);
    SEL_I  : in  std_logic_vector(C_DWIDTH/8-1 downto 0);
    DAT_I  : in  std_logic_vector(C_DWIDTH-1 downto 0);
    DAT_O  : out std_logic_vector(C_DWIDTH-1 downto 0);
    ACK_O  : out std_logic;
    -- SIS side (Fig 4.2)
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

architecture rtl of %COMP_NAME%_wishbone_interface is
  signal selected : std_logic;
begin
  SIS_RST  <= RST_I;
  selected <= CYC_I and STB_I;

  SIS_FUNC_ID       <= ADR_I(%FUNC_ID_WIDTH%+1 downto 2);
  SIS_IO_ENABLE     <= selected;
  SIS_DATA_IN       <= DAT_I;
  SIS_DATA_IN_VALID <= selected and WE_I;

  -- the slave stretches the cycle until the function responds (§4.2.1)
  DAT_O <= SIS_DATA_OUT when unsigned(ADR_I(%FUNC_ID_WIDTH%+1 downto 2)) /= 0
           else std_logic_vector(resize(unsigned(SIS_CALC_DONE), C_DWIDTH));
  ACK_O <= SIS_IO_DONE;
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
      {|/* splice_lib.h -- Wishbone transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * Classic cycles with CTI-qualified incrementing bursts. */
#ifndef SPLICE_LIB_WISHBONE_H
#define SPLICE_LIB_WISHBONE_H

#include <stdint.h>

#define SPLICE_BASE_ADDR  0x|};
      Spec.base_address_hex spec;
      {|UL
#define SET_ADDRESS(id)   (SPLICE_BASE_ADDR + ((uint32_t)(id) * 4u))

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
#define WRITE_DOUBLE(addr, src) do { /* CTI=010 incrementing burst */ \
  WRITE_SINGLE((addr), (const uint32_t *)(src));                      \
  WRITE_SINGLE((addr), (const uint32_t *)(src) + 1); } while (0)
#define WRITE_QUAD(addr, src) do { \
  WRITE_DOUBLE((addr), (const uint32_t *)(src));   \
  WRITE_DOUBLE((addr), (const uint32_t *)(src) + 2); } while (0)

#define READ_SINGLE(addr, dst) \
  (*(uint32_t *)(dst) = *(volatile uint32_t *)(addr))
#define READ_DOUBLE(addr, dst) do { \
  READ_SINGLE((addr), (uint32_t *)(dst));       \
  READ_SINGLE((addr), (uint32_t *)(dst) + 1); } while (0)
#define READ_QUAD(addr, dst) do { \
  READ_DOUBLE((addr), (uint32_t *)(dst));       \
  READ_DOUBLE((addr), (uint32_t *)(dst) + 2); } while (0)

#define WAIT_FOR_RESULTS(addr) ((void)0) /* ACK_O stretches the cycle */

/* no standard Wishbone DMA engine */

#endif /* SPLICE_LIB_WISHBONE_H */
|};
    ]
