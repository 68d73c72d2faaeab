(* Altera Avalon Memory-Mapped interface (§10.2 future work — implemented).

   Pseudo-asynchronous (the slave back-pressures with waitrequest),
   memory-mapped, 32-bit, with pipelined burst transfers and master-side
   DMA controllers available in SOPC systems. The Altera counterpart of the
   Xilinx CoreConnect ecosystem (§2.3). *)

open Splice_syntax

let caps =
  {
    Bus_caps.name = "avalon";
    widths = [ 32 ];
    memory_mapped = true;
    supports_burst = true;
    supports_dma = true;
    max_burst_words = 8;
    dma_max_bytes = 512;
    pseudo_async = true;
    supports_interrupts = true;
  }

let engine_config =
  {
    Adapter_engine.name = "avalon";
    setup_cycles = 2; (* fabric arbitration + address phase *)
    write_word_gap = 0;
    read_word_gap = 0;
    teardown_cycles = 0;
    strictly_sync = false;
    dma_setup_transactions = 3; (* read addr / write addr / length+go *)
  }

let wait_mode = `Null
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: Avalon-MM <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%  DMA: %DMA_ENABLED%
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_avalon_interface is
  generic (
    C_BASEADDR : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH   : integer := %BUS_WIDTH%
  );
  port (
    clk             : in  std_logic;
    reset           : in  std_logic;
    av_chipselect   : in  std_logic;
    av_read         : in  std_logic;
    av_write        : in  std_logic;
    av_address      : in  std_logic_vector(31 downto 0);
    av_writedata    : in  std_logic_vector(C_DWIDTH-1 downto 0);
    av_readdata     : out std_logic_vector(C_DWIDTH-1 downto 0);
    av_waitrequest  : out std_logic;
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

architecture rtl of %COMP_NAME%_avalon_interface is
  signal active : std_logic;
begin
  SIS_RST <= reset;
  active  <= av_chipselect and (av_read or av_write);

  SIS_FUNC_ID       <= av_address(%FUNC_ID_WIDTH%+1 downto 2);
  SIS_IO_ENABLE     <= active;
  SIS_DATA_IN       <= av_writedata;
  SIS_DATA_IN_VALID <= av_chipselect and av_write;

  -- back-pressure the fabric until the function acknowledges (§4.2.1)
  av_waitrequest <= active and not SIS_IO_DONE;
  av_readdata <=
    SIS_DATA_OUT when unsigned(av_address(%FUNC_ID_WIDTH%+1 downto 2)) /= 0
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
      {|/* splice_lib.h -- Avalon-MM transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * waitrequest back-pressure makes WAIT_FOR_RESULTS a no-op (§6.1.1). */
#ifndef SPLICE_LIB_AVALON_H
#define SPLICE_LIB_AVALON_H

#include <stdint.h>

#define SPLICE_BASE_ADDR  0x|};
      Spec.base_address_hex spec;
      {|UL
#define SET_ADDRESS(id)   (SPLICE_BASE_ADDR + ((uint32_t)(id) * 4u))

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
#define WRITE_DOUBLE(addr, src) do { /* pipelined burst */ \
  WRITE_SINGLE((addr), (const uint32_t *)(src));           \
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

#define WAIT_FOR_RESULTS(addr) ((void)0) /* waitrequest stalls the master */

|};
      (if spec.dma then
       {|/* SOPC DMA controller registers */
#define SPLICE_DMA_REG(k)  (SPLICE_BASE_ADDR + 0x80 + 4 * (k))
#define WRITE_DMA(addr, src, words) do {                      \
  *(volatile uint32_t *)SPLICE_DMA_REG(0) = (uint32_t)(uintptr_t)(src);  \
  *(volatile uint32_t *)SPLICE_DMA_REG(1) = (uint32_t)(uintptr_t)(addr); \
  *(volatile uint32_t *)SPLICE_DMA_REG(2) = ((uint32_t)(words) << 1) | 1u; \
  while (*(volatile uint32_t *)SPLICE_DMA_REG(2) & 1u) { }    \
} while (0)
#define READ_DMA(addr, dst, words) do {                       \
  *(volatile uint32_t *)SPLICE_DMA_REG(0) = (uint32_t)(uintptr_t)(addr); \
  *(volatile uint32_t *)SPLICE_DMA_REG(1) = (uint32_t)(uintptr_t)(dst);  \
  *(volatile uint32_t *)SPLICE_DMA_REG(2) = ((uint32_t)(words) << 1) | 1u; \
  while (*(volatile uint32_t *)SPLICE_DMA_REG(2) & 1u) { }    \
} while (0)|}
     else "/* DMA disabled for this device (%dma_support false) */");
      {|
#endif /* SPLICE_LIB_AVALON_H */
|};
    ]
