open Splice_syntax
open Splice_hdl
open Hdl_ast

(* one hardware instance: its function, index, assigned id and the
   arbiter's four signals for its stub outputs, named once per design *)
type inst = {
  func : Spec.func;
  index : int;
  id : int;
  data_out : string;
  data_out_valid : string;
  io_done : string;
  calc_done : string;
}

(* [port] is the stub port's name in lower case *)
let sig_of id port = String.concat "" [ "f"; Emit.int_to_string id; "_"; port ]

(* every instance in id order *)
let instances (spec : Spec.t) =
  List.concat_map
    (fun (f : Spec.func) ->
      List.init f.Spec.instances (fun index ->
          let id = f.Spec.func_id + index in
          {
            func = f;
            index;
            id;
            data_out = sig_of id "data_out";
            data_out_valid = sig_of id "data_out_valid";
            io_done = sig_of id "io_done";
            calc_done = sig_of id "calc_done";
          }))
    spec.Spec.funcs

let inst_label (f : Spec.func) i =
  if f.Spec.instances = 1 then f.Spec.name
  else String.concat "" [ f.Spec.name; "_"; Emit.int_to_string i ]

let mux_assign (spec : Spec.t) insts ~port stub_out =
  let width = if port = "DATA_OUT" then spec.Spec.bus_width else 1 in
  let branches =
    List.map
      (fun inst ->
        (Binop (Eq, Ref "FUNC_ID", Lit (inst.id, spec.Spec.func_id_width)), Ref (stub_out inst)))
      insts
  in
  Cassign_cond (Ref port, branches, if width = 1 then Bool_lit false else All_zeros)

(* [target] is the CALC_DONE port, or the internal vector the interrupt
   controller (§10.2) routes it through *)
let calc_done_encode insts ~target =
  let parts =
    (* VHDL concatenation puts the most significant element first *)
    List.rev_map (fun inst -> Ref inst.calc_done) insts
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
      (fun inst ->
        [
          { sig_name = inst.data_out; sig_width = bw };
          { sig_name = inst.data_out_valid; sig_width = 1 };
          { sig_name = inst.io_done; sig_width = 1 };
          { sig_name = inst.calc_done; sig_width = 1 };
        ])
      insts
  in
  let instantiations =
    List.map
      (fun inst ->
        let f = inst.func in
        Instance
          {
            inst_name = "u_" ^ inst_label f inst.index;
            comp_name = "func_" ^ f.Spec.name;
            generic_map = [ ("C_MY_FUNC_ID", inst.id) ];
            port_map =
              [
                ("CLK", Ref "CLK");
                ("RST", Ref "RST");
                ("DATA_IN", Ref "DATA_IN");
                ("DATA_IN_VALID", Ref "DATA_IN_VALID");
                ("IO_ENABLE", Ref "IO_ENABLE");
                ("FUNC_ID", Ref "FUNC_ID");
                ("DATA_OUT", Ref inst.data_out);
                ("DATA_OUT_VALID", Ref inst.data_out_valid);
                ("IO_DONE", Ref inst.io_done);
                ("CALC_DONE", Ref inst.calc_done);
              ];
          })
      insts
  in
  {
    header =
      [
        String.concat ""
          [
            "user_"; spec.Spec.device_name; ": arbitration unit for device ";
            spec.Spec.device_name;
          ];
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
          mux_assign spec insts ~port:"DATA_OUT" (fun i -> i.data_out);
          mux_assign spec insts ~port:"DATA_OUT_VALID" (fun i -> i.data_out_valid);
          mux_assign spec insts ~port:"IO_DONE" (fun i -> i.io_done);
          Ccomment "status vector: CALC_DONE bit (id-1) per instance (§4.2.2)";
          calc_done_encode insts
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
  String.concat ""
    [
      "user_"; spec.Spec.device_name;
      (match spec.Spec.hdl with Ast.Vhdl -> ".vhd" | Ast.Verilog -> ".v");
    ]
