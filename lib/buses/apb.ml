(* AMBA Peripheral Bus (§2.3.1).

   Strictly synchronous low-speed interface bridged off the AHB: peripherals
   may not pause the bus, so every access completes in a fixed number of
   cycles and reads of unready functions return garbage. Splice drivers for
   the APB therefore poll the CALC_DONE status register (function id 0)
   before reading results (§4.2.2, §6.1.1). *)

open Splice_syntax

let caps =
  {
    Bus_caps.name = "apb";
    widths = [ 32 ];
    memory_mapped = true;
    supports_burst = false;
    supports_dma = false;
    max_burst_words = 1;
    dma_max_bytes = 0;
    pseudo_async = false;
    supports_interrupts = true; (* APB peripherals raise external IRQ lines *)
  }

let engine_config =
  {
    Adapter_engine.name = "apb";
    setup_cycles = 2; (* AHB arbitration + APB bridge setup phase *)
    write_word_gap = 1; (* APB enable phase between transfers *)
    read_word_gap = 1;
    teardown_cycles = 0;
    strictly_sync = true;
    dma_setup_transactions = 0;
  }

let wait_mode = `Poll
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: APB <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%
-- Strictly synchronous: transactions may not be paused, so the CALC_DONE
-- vector is exposed at function id 0 for software polling (§4.2.2).
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_apb_interface is
  generic (
    C_BASEADDR : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH   : integer := %BUS_WIDTH%
  );
  port (
    PCLK    : in  std_logic;
    PRESETn : in  std_logic;
    PSEL    : in  std_logic;
    PENABLE : in  std_logic;
    PWRITE  : in  std_logic;
    PADDR   : in  std_logic_vector(31 downto 0);
    PWDATA  : in  std_logic_vector(C_DWIDTH-1 downto 0);
    PRDATA  : out std_logic_vector(C_DWIDTH-1 downto 0);
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

architecture rtl of %COMP_NAME%_apb_interface is
  signal access_phase : std_logic;
begin
  SIS_RST      <= not PRESETn;
  access_phase <= PSEL and PENABLE;

  SIS_FUNC_ID       <= PADDR(%FUNC_ID_WIDTH%+1 downto 2);
  SIS_IO_ENABLE     <= access_phase;
  SIS_DATA_IN       <= PWDATA;
  SIS_DATA_IN_VALID <= access_phase and PWRITE;

  -- reads complete in the access phase whether or not the peripheral is
  -- ready; software must poll id 0 first (strictly synchronous, §4.2.2)
  PRDATA <= SIS_DATA_OUT when unsigned(PADDR(%FUNC_ID_WIDTH%+1 downto 2)) /= 0
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
      {|/* splice_lib.h -- APB transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * Strictly synchronous: WAIT_FOR_RESULTS polls the CALC_DONE status
 * register (function id 0) until the target function's bit rises
 * (§4.2.2, §6.1.1). */
#ifndef SPLICE_LIB_APB_H
#define SPLICE_LIB_APB_H

#include <stdint.h>

#define SPLICE_BASE_ADDR  0x|};
      Spec.base_address_hex spec;
      {|UL
#define SET_ADDRESS(id)   (SPLICE_BASE_ADDR + ((uint32_t)(id) * 4u))
#define SPLICE_STATUS_REG SET_ADDRESS(0)

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
#define WRITE_DOUBLE(addr, src) do { /* no burst on the APB */ \
  WRITE_SINGLE((addr), (const uint32_t *)(src));               \
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

/* poll the status vector until our function's CALC_DONE bit rises */
#define WAIT_FOR_RESULTS(addr)                                           \
  do {                                                                   \
    uint32_t id = ((addr) - SPLICE_BASE_ADDR) / 4u;                      \
    while (!(*(volatile uint32_t *)SPLICE_STATUS_REG & (1u << (id - 1)))) { } \
  } while (0)

/* DMA unsupported on the APB */

#endif /* SPLICE_LIB_APB_H */
|};
    ]

(* ------------------------------------------------------------------ *)
(* Native signal mirror (§4.3.2: "analogous comparisons ... with the   *)
(* APB interface")                                                     *)
(* ------------------------------------------------------------------ *)

module Native = struct
  open Splice_sim

  type t = {
    psel : Signal.t;
    penable : Signal.t;
    pwrite : Signal.t;
    paddr : Signal.t;
    pwdata : Signal.t;
    prdata : Signal.t;
  }

  let signals t =
    [ t.psel; t.penable; t.pwrite; t.paddr; t.pwdata; t.prdata ]
end

let native_mirror kernel ~base_address (sis : Splice_sis.Sis_if.t) =
  let open Splice_sim in
  let open Splice_bits in
  let width = Signal.width sis.Splice_sis.Sis_if.data_in in
  let s name w = Signal.create ~name:("apb." ^ name) w in
  let n =
    {
      Native.psel = s "PSEL" 1;
      penable = s "PENABLE" 1;
      pwrite = s "PWRITE" 1;
      paddr = s "PADDR" 32;
      pwdata = s "PWDATA" width;
      prdata = s "PRDATA" width;
    }
  in
  let comb () =
    let active = Signal.get_bool sis.Splice_sis.Sis_if.io_enable in
    Signal.set_bool n.Native.psel active;
    (* the access phase: strictly synchronous transfers complete here *)
    Signal.set_bool n.Native.penable active;
    Signal.set_bool n.Native.pwrite
      (Signal.get_bool sis.Splice_sis.Sis_if.data_in_valid);
    let id = Signal.get_int sis.Splice_sis.Sis_if.func_id in
    Signal.set n.Native.paddr
      (Bits.create ~width:32 (Int64.add base_address (Int64.of_int (4 * id))));
    Signal.set n.Native.pwdata (Signal.get sis.Splice_sis.Sis_if.data_in);
    Signal.set n.Native.prdata (Signal.get sis.Splice_sis.Sis_if.data_out)
  in
  Kernel.add kernel
    (Component.make
       ~comb:
         ( [
             sis.Splice_sis.Sis_if.io_enable;
             sis.Splice_sis.Sis_if.data_in_valid;
             sis.Splice_sis.Sis_if.func_id;
             sis.Splice_sis.Sis_if.data_in;
             sis.Splice_sis.Sis_if.data_out;
           ],
           comb )
       "apb-native-mirror");
  n
