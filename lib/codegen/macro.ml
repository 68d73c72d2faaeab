open Splice_syntax
open Splice_hdl
open Hdl_ast

let base_addr_literal (spec : Spec.t) =
  match spec.Spec.base_address with
  | Some a -> Printf.sprintf "x\"%08Lx\"" a
  | None -> "x\"00000000\""

let default_gen_date () =
  let t = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min

let standard ?gen_date (spec : Spec.t) =
  let date = match gen_date with Some d -> d | None -> default_gen_date () in
  [
    ("COMP_NAME", spec.Spec.device_name);
    ("BUS_WIDTH", string_of_int spec.Spec.bus_width);
    ("FUNC_ID_WIDTH", string_of_int spec.Spec.func_id_width);
    ("BASE_ADDR", base_addr_literal spec);
    ("GEN_DATE", date);
    ("DMA_ENABLED", if spec.Spec.dma then "true" else "false");
  ]

let for_function (spec : Spec.t) (f : Spec.func) =
  let lines decl xs = String.concat "\n" (List.map decl xs) in
  [
    ("FUNC_NAME", f.Spec.name);
    ("MY_FUNC_ID", string_of_int f.Spec.func_id);
    ("FUNC_INSTS", string_of_int f.Spec.instances);
    ("FUNC_CONSTS", lines Vhdl.constant_decl (Stubgen.stub_constants spec f));
    ("FUNC_SIGNALS", lines Vhdl.signal_decl (Stubgen.stub_signals spec f));
    ("FUNC_FSM", Vhdl.concurrent (Proc (Stubgen.fsm_process spec f)));
    ("FUNC_STUB", Vhdl.concurrent (Proc (Stubgen.stub_process spec f)));
  ]

let arbiter_macros (spec : Spec.t) =
  [
    ( "DATA_OUT_MUX",
      Vhdl.concurrent (Arbitergen.mux_assign spec ~port:"DATA_OUT" ~stub_port:"data_out")
    );
    ( "DATA_OUT_V_MUX",
      Vhdl.concurrent
        (Arbitergen.mux_assign spec ~port:"DATA_OUT_VALID" ~stub_port:"data_out_valid") );
    ( "IO_DONE_MUX",
      Vhdl.concurrent (Arbitergen.mux_assign spec ~port:"IO_DONE" ~stub_port:"io_done") );
    ("CALC_DONE_ENCODE", Vhdl.concurrent (Arbitergen.calc_done_encode spec));
  ]
