open Splice_syntax
open Splice_hdl
open Hdl_ast

(* every (function, instance) pair with its assigned id, in id order *)
let instances (spec : Spec.t) =
  List.concat_map
    (fun (f : Spec.func) ->
      List.init f.Spec.instances (fun i -> (f, i, f.Spec.func_id + i)))
    spec.Spec.funcs

let inst_label (f : Spec.func) i =
  if f.Spec.instances = 1 then f.Spec.name else f.Spec.name ^ "_" ^ string_of_int i

(* [port] is the stub port's name in lower case *)
let sig_of id port = "f" ^ string_of_int id ^ "_" ^ port

let mux_assign (spec : Spec.t) ~port ~stub_port =
  let width = if port = "DATA_OUT" then spec.Spec.bus_width else 1 in
  let branches =
    List.map
      (fun (_, _, id) ->
        ( Binop
            ( Eq,
              Ref "FUNC_ID",
              Lit (id, spec.Spec.func_id_width) ),
          Ref (sig_of id stub_port) ))
      (instances spec)
  in
  Cassign_cond (Ref port, branches, if width = 1 then Bool_lit false else All_zeros)

(* [target] is the CALC_DONE port, or the internal vector the interrupt
   controller (§10.2) routes it through *)
let calc_done_encode (spec : Spec.t) ~target =
  let parts =
    (* VHDL concatenation puts the most significant element first *)
    List.rev_map (fun (_, _, id) -> Ref (sig_of id "calc_done")) (instances spec)
  in
  match parts with
  | [ single ] -> Cassign (Ref target, single)
  | parts -> Cassign (Ref target, Concat parts)

let design (spec : Spec.t) =
  let bw = spec.Spec.bus_width in
  let fidw = spec.Spec.func_id_width in
  let insts = instances spec in
  let per_inst_signals =
    List.concat_map
      (fun (_, _, id) ->
        [
          { sig_name = sig_of id "data_out"; sig_width = bw };
          { sig_name = sig_of id "data_out_valid"; sig_width = 1 };
          { sig_name = sig_of id "io_done"; sig_width = 1 };
          { sig_name = sig_of id "calc_done"; sig_width = 1 };
        ])
      insts
  in
  let instantiations =
    List.map
      (fun ((f : Spec.func), i, id) ->
        Instance
          {
            inst_name = "u_" ^ inst_label f i;
            comp_name = "func_" ^ f.Spec.name;
            generic_map = [ ("C_MY_FUNC_ID", id) ];
            port_map =
              [
                ("CLK", Ref "CLK");
                ("RST", Ref "RST");
                ("DATA_IN", Ref "DATA_IN");
                ("DATA_IN_VALID", Ref "DATA_IN_VALID");
                ("IO_ENABLE", Ref "IO_ENABLE");
                ("FUNC_ID", Ref "FUNC_ID");
                ("DATA_OUT", Ref (sig_of id "data_out"));
                ("DATA_OUT_VALID", Ref (sig_of id "data_out_valid"));
                ("IO_DONE", Ref (sig_of id "io_done"));
                ("CALC_DONE", Ref (sig_of id "calc_done"));
              ];
          })
      insts
  in
  {
    header =
      [
        "user_" ^ spec.Spec.device_name ^ ": arbitration unit for device "
        ^ spec.Spec.device_name;
        "Multiplexes the shared SIS output signals across all user functions";
        "and assembles the CALC_DONE status vector (Ch 5.2).";
      ];
    name = "user_" ^ spec.Spec.device_name;
    generics = [];
    ports =
      [
        clk_port;
        rst_port;
        { port_name = "DATA_IN"; dir = In; width = bw };
        { port_name = "DATA_IN_VALID"; dir = In; width = 1 };
        { port_name = "IO_ENABLE"; dir = In; width = 1 };
        { port_name = "FUNC_ID"; dir = In; width = fidw };
        { port_name = "DATA_OUT"; dir = Out; width = bw };
        { port_name = "DATA_OUT_VALID"; dir = Out; width = 1 };
        { port_name = "IO_DONE"; dir = Out; width = 1 };
        { port_name = "CALC_DONE"; dir = Out; width = max 1 spec.Spec.total_instances };
      ]
      @
      (if spec.Spec.interrupts then [ { port_name = "IRQ"; dir = Out; width = 1 } ]
       else []);
    constants = [];
    signals =
      per_inst_signals
      @
      (if spec.Spec.interrupts then
         [
           { sig_name = "calc_done_vec"; sig_width = max 1 spec.Spec.total_instances };
           { sig_name = "calc_done_prev"; sig_width = max 1 spec.Spec.total_instances };
           { sig_name = "irq_latch"; sig_width = 1 };
         ]
       else []);
    body =
      [ Ccomment "function instantiations (one per hardware instance, §5.2)" ]
      @ instantiations
      @ [
          Ccomment "shared-output multiplexing, selected by FUNC_ID";
          mux_assign spec ~port:"DATA_OUT" ~stub_port:"data_out";
          mux_assign spec ~port:"DATA_OUT_VALID" ~stub_port:"data_out_valid";
          mux_assign spec ~port:"IO_DONE" ~stub_port:"io_done";
          Ccomment "status vector: CALC_DONE bit (id-1) per instance (§4.2.2)";
          calc_done_encode spec
            ~target:(if spec.Spec.interrupts then "calc_done_vec" else "CALC_DONE");
        ]
      @
      (if spec.Spec.interrupts then
         [
           Cassign (Ref "CALC_DONE", Ref "calc_done_vec");
           Ccomment
             "completion-interrupt controller (§10.2): latch any CALC_DONE";
           Ccomment "rising edge; the driver's status read acknowledges it";
           Proc
             {
               proc_name = "irq_ctrl";
               clocked = true;
               sensitivity = [];
               body =
                 [
                   If
                     ( [ (Ref "RST", [ Assign (Ref "irq_latch", Bool_lit false) ]) ],
                       [
                         If
                           ( [
                               ( Binop
                                   ( Neq,
                                     Binop (And, Ref "calc_done_vec", Not (Ref "calc_done_prev")),
                                     All_zeros ),
                                 [ Assign (Ref "irq_latch", Bool_lit true) ] );
                               ( Binop
                                   (And, Ref "IO_ENABLE", Binop (Eq, Ref "FUNC_ID", Int_lit 0)),
                                 [ Assign (Ref "irq_latch", Bool_lit false) ] );
                             ],
                             [] );
                         Assign (Ref "calc_done_prev", Ref "calc_done_vec");
                       ] );
                 ];
             };
           Cassign (Ref "IRQ", Ref "irq_latch");
         ]
       else []);
  }

let generate spec =
  let d = design spec in
  match spec.Spec.hdl with
  | Ast.Vhdl -> Vhdl.to_string d
  | Ast.Verilog -> Verilog.to_string d

let file_name (spec : Spec.t) =
  "user_" ^ spec.Spec.device_name
  ^ match spec.Spec.hdl with Ast.Vhdl -> ".vhd" | Ast.Verilog -> ".v"
