(* Xilinx Fabric Co-processor Bus (§2.3.2).

   Pseudo-asynchronous 32-bit co-processor interconnect, accessed through
   dedicated FCB opcodes rather than memory mappings — so no %base_address
   is required, and DMA is impossible. Native double- and quad-word bursts
   make it the fastest interface in the Ch 9 evaluation. Splice lifts the
   "single device" restriction by multiplexing several functions behind one
   logical peripheral (§2.3.2 "Fabric Co-Processor Bus"). *)

open Splice_syntax

let caps =
  {
    Bus_caps.name = "fcb";
    widths = [ 32 ];
    memory_mapped = false;
    supports_burst = true;
    supports_dma = false;
    max_burst_words = 4;
    dma_max_bytes = 0;
    pseudo_async = true;
    supports_interrupts = false;
  }

let engine_config =
  {
    Adapter_engine.name = "fcb";
    setup_cycles = 1; (* direct co-processor port: decode only *)
    write_word_gap = 0;
    read_word_gap = 0;
    teardown_cycles = 0;
    strictly_sync = false;
    dma_setup_transactions = 0;
  }

let wait_mode = `Null
let connect = Bus.connect_with_engine engine_config caps wait_mode
let check_params _ = Ok ()

let adapter_template =
  {|-- %COMP_NAME%: FCB <-> SIS native interface adapter
-- Generated by Splice on %GEN_DATE%
-- Opcode-accessed co-processor port: no address decode, FUNC_ID carried in
-- the instruction's register field. Supports double/quad-word bursts.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_fcb_interface is
  generic (C_DWIDTH : integer := %BUS_WIDTH%);
  port (
    FCB_Clk        : in  std_logic;
    FCB_Rst        : in  std_logic;
    FCB_Decoded    : in  std_logic;  -- an FCB opcode targets us this cycle
    FCB_WrData     : in  std_logic_vector(C_DWIDTH-1 downto 0);
    FCB_Operation  : in  std_logic;  -- 0 = load (read), 1 = store (write)
    FCB_Reg        : in  std_logic_vector(%FUNC_ID_WIDTH%-1 downto 0);
    FCB_RdData     : out std_logic_vector(C_DWIDTH-1 downto 0);
    FCB_Done       : out std_logic;
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

architecture rtl of %COMP_NAME%_fcb_interface is
begin
  SIS_RST           <= FCB_Rst;
  SIS_FUNC_ID       <= FCB_Reg;
  SIS_IO_ENABLE     <= FCB_Decoded;
  SIS_DATA_IN       <= FCB_WrData;
  SIS_DATA_IN_VALID <= FCB_Decoded and FCB_Operation;

  FCB_RdData <= SIS_DATA_OUT when unsigned(FCB_Reg) /= 0
                else std_logic_vector(resize(unsigned(SIS_CALC_DONE), C_DWIDTH));
  FCB_Done   <= SIS_IO_DONE;
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
      {|/* splice_lib.h -- FCB transaction macros for device |};
      spec.device_name;
      {| (Fig 7.2)
 * The FCB is not memory-mapped: transfers use dedicated co-processor
 * opcodes (inline asm), with the function id in the register field.
 * Double/quad-word bursts are native (§2.3.2). */
#ifndef SPLICE_LIB_FCB_H
#define SPLICE_LIB_FCB_H

#include <stdint.h>

/* "addresses" on the FCB are just function identifiers */
#define SET_ADDRESS(id) ((uint32_t)(id))

#define WRITE_SINGLE(id, src) \
  __asm__ volatile ("fcbstw  %0, %1" :: "r"(*(const uint32_t *)(src)), "i"(id))
#define WRITE_DOUBLE(id, src) \
  __asm__ volatile ("fcbstd  %0, %1" :: "r"((const uint32_t *)(src)), "i"(id))
#define WRITE_QUAD(id, src) \
  __asm__ volatile ("fcbstq  %0, %1" :: "r"((const uint32_t *)(src)), "i"(id))

#define READ_SINGLE(id, dst) \
  __asm__ volatile ("fcbldw  %0, %1" : "=r"(*(uint32_t *)(dst)) : "i"(id))
#define READ_DOUBLE(id, dst) \
  __asm__ volatile ("fcbldd  %0, %1" :: "r"((uint32_t *)(dst)), "i"(id))
#define READ_QUAD(id, dst) \
  __asm__ volatile ("fcbldq  %0, %1" :: "r"((uint32_t *)(dst)), "i"(id))

#define WAIT_FOR_RESULTS(id) ((void)0) /* pseudo-asynchronous */

/* DMA impossible: the FCB is not memory-accessible (§2.3.2) */

#endif /* SPLICE_LIB_FCB_H */
|};
    ]

(* ------------------------------------------------------------------ *)
(* Native signal mirror (§4.3.2: "analogous comparisons ... with the   *)
(* CoreConnect FCB")                                                   *)
(* ------------------------------------------------------------------ *)

module Native = struct
  open Splice_sim

  type t = {
    decoded : Signal.t;  (* an FCB opcode targets this peripheral *)
    operation : Signal.t;  (* 0 = load (read), 1 = store (write) *)
    reg : Signal.t;  (* the instruction's register field = FUNC_ID *)
    wr_data : Signal.t;
    rd_data : Signal.t;
    done_ : Signal.t;
  }

  let signals t =
    [ t.decoded; t.operation; t.reg; t.wr_data; t.rd_data; t.done_ ]
end

let native_mirror kernel (sis : Splice_sis.Sis_if.t) =
  let open Splice_sim in
  let width = Signal.width sis.Splice_sis.Sis_if.data_in in
  let s name w = Signal.create ~name:("fcb." ^ name) w in
  let n =
    {
      Native.decoded = s "DECODED" 1;
      operation = s "OPERATION" 1;
      reg = s "REG" (Signal.width sis.Splice_sis.Sis_if.func_id);
      wr_data = s "WR_DATA" width;
      rd_data = s "RD_DATA" width;
      done_ = s "DONE" 1;
    }
  in
  let comb () =
    (* the FCB's signal set maps one-to-one onto the SIS (§4.3.2) *)
    Signal.set_bool n.Native.decoded
      (Signal.get_bool sis.Splice_sis.Sis_if.io_enable);
    Signal.set_bool n.Native.operation
      (Signal.get_bool sis.Splice_sis.Sis_if.data_in_valid);
    Signal.set n.Native.reg (Signal.get sis.Splice_sis.Sis_if.func_id);
    Signal.set n.Native.wr_data (Signal.get sis.Splice_sis.Sis_if.data_in);
    Signal.set n.Native.rd_data (Signal.get sis.Splice_sis.Sis_if.data_out);
    Signal.set_bool n.Native.done_
      (Signal.get_bool sis.Splice_sis.Sis_if.io_done)
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
             sis.Splice_sis.Sis_if.io_done;
           ],
           comb )
       "fcb-native-mirror");
  n
