(* AMBA High-speed Bus (§2.3.1).

   The thesis lists AHB support as immediate future work ("among the first
   items that are added", §2.3.1); this implementation provides it. The AHB
   is a pseudo-asynchronous, memory-mapped, high-bandwidth interconnect with
   chained bursts of up to 16 beats and master-side DMA (used on LEON2
   systems to pass network packets directly to memory). *)

open Splice_syntax

let caps =
  {
    Bus_caps.name = "ahb";
    widths = [ 32; 64 ];
    memory_mapped = true;
    supports_burst = true;
    supports_dma = true;
    max_burst_words = 16;
    dma_max_bytes = 1024; (* 16-beat chained transactions, §2.3.1 *)
    pseudo_async = true;
    supports_interrupts = true;
  }

let engine_config =
  {
    Adapter_engine.name = "ahb";
    setup_cycles = 1; (* single-cycle arbitration for a granted master *)
    write_word_gap = 0;
    read_word_gap = 0;
    teardown_cycles = 0;
    strictly_sync = false;
    dma_setup_transactions = 2; (* address + control registers *)
  }

let wait_mode = `Null
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: AHB <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%  DMA: %DMA_ENABLED%
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_ahb_interface is
  generic (
    C_BASEADDR : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH   : integer := %BUS_WIDTH%
  );
  port (
    HCLK      : in  std_logic;
    HRESETn   : in  std_logic;
    HSEL      : in  std_logic;
    HTRANS    : in  std_logic_vector(1 downto 0);  -- IDLE/BUSY/NONSEQ/SEQ
    HWRITE    : in  std_logic;
    HADDR     : in  std_logic_vector(31 downto 0);
    HWDATA    : in  std_logic_vector(C_DWIDTH-1 downto 0);
    HRDATA    : out std_logic_vector(C_DWIDTH-1 downto 0);
    HREADY    : out std_logic;
    HRESP     : out std_logic_vector(1 downto 0);
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

architecture rtl of %COMP_NAME%_ahb_interface is
  signal active : std_logic;
begin
  SIS_RST <= not HRESETn;
  active  <= HSEL and HTRANS(1);  -- NONSEQ or SEQ beat

  SIS_FUNC_ID       <= HADDR(%FUNC_ID_WIDTH%+1 downto 2);
  SIS_IO_ENABLE     <= active;
  SIS_DATA_IN       <= HWDATA;
  SIS_DATA_IN_VALID <= active and HWRITE;

  -- pseudo-asynchronous: stall the bus with HREADY until the function
  -- acknowledges (the "Delayed Read" of Fig 4.3)
  HREADY <= SIS_IO_DONE or not active;
  HRESP  <= "00"; -- OKAY
  HRDATA <= SIS_DATA_OUT when unsigned(HADDR(%FUNC_ID_WIDTH%+1 downto 2)) /= 0
            else std_logic_vector(resize(unsigned(SIS_CALC_DONE), C_DWIDTH));
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
      {|/* splice_lib.h -- AHB transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * Memory-mapped pseudo-asynchronous master interface with chained bursts
 * of up to 16 beats (§2.3.1). */
#ifndef SPLICE_LIB_AHB_H
#define SPLICE_LIB_AHB_H

#include <stdint.h>

#define SPLICE_BASE_ADDR  0x|};
      Spec.base_address_hex spec;
      {|UL
#define SET_ADDRESS(id)   (SPLICE_BASE_ADDR + ((uint32_t)(id) * 4u))

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
#define WRITE_DOUBLE(addr, src) do { /* 2-beat SEQ burst */ \
  WRITE_SINGLE((addr), (const uint32_t *)(src));            \
  WRITE_SINGLE((addr), (const uint32_t *)(src) + 1); } while (0)
#define WRITE_QUAD(addr, src) do { /* 4-beat SEQ burst */ \
  WRITE_DOUBLE((addr), (const uint32_t *)(src));          \
  WRITE_DOUBLE((addr), (const uint32_t *)(src) + 2); } while (0)

#define READ_SINGLE(addr, dst) \
  (*(uint32_t *)(dst) = *(volatile uint32_t *)(addr))
#define READ_DOUBLE(addr, dst) do { \
  READ_SINGLE((addr), (uint32_t *)(dst));       \
  READ_SINGLE((addr), (uint32_t *)(dst) + 1); } while (0)
#define READ_QUAD(addr, dst) do { \
  READ_DOUBLE((addr), (uint32_t *)(dst));       \
  READ_DOUBLE((addr), (uint32_t *)(dst) + 2); } while (0)

#define WAIT_FOR_RESULTS(addr) ((void)0) /* HREADY stalls until ready */

#define WRITE_DMA(addr, src, words) do {            \
  /* program the AHB master: address + control */   \
  *(volatile uint32_t *)SET_ADDRESS(0) = (uint32_t)(uintptr_t)(src);   \
  *(volatile uint32_t *)(addr) = (uint32_t)(words) | 0x80000000u; \
} while (0)
#define READ_DMA(addr, dst, words) do {             \
  *(volatile uint32_t *)SET_ADDRESS(0) = (uint32_t)(uintptr_t)(dst);   \
  *(volatile uint32_t *)(addr) = (uint32_t)(words) | 0xC0000000u; \
} while (0)

#endif /* SPLICE_LIB_AHB_H */
|};
    ]
