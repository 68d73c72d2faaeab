open Splice_syntax
open Splice_hdl
open Splice_sis
open Hdl_ast

(* tracking registers are at least 2 bits wide so they always render as
   vectors (a 1-bit std_logic counter would not accept vector arithmetic) *)
let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  max 2 (go 1)

(* state encodings may legitimately be 1 bit *)
let state_bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  max 1 (go 1)

let state_names (f : Spec.func) =
  let inputs =
    match f.Spec.inputs with
    | [] -> [ "IN_TRIGGER" ]
    | ios -> List.map (fun (io : Spec.io) -> "IN_" ^ io.io_name) ios
  in
  let rb =
    List.map (fun (io : Spec.io) -> "OUT_" ^ io.io_name) (Spec.readbacks f)
  in
  let out = if f.Spec.output <> None || Spec.blocking_ack f then [ "OUT_RESULT" ] else [] in
  inputs @ [ "CALC" ] @ rb @ out

let state_width f = state_bits_for (List.length (state_names f) - 1)

(* word count for an input with a static count; [None] when implicit *)
let static_words spec (io : Spec.io) =
  match io.Spec.count with
  | Some (Ast.Var _) -> None
  | _ ->
      Some (Plan.xfer_of_io spec Plan.In io ~values:(fun _ -> 1)).Plan.words

let counter_name (io : Spec.io) = io.Spec.io_name ^ "_counter"
let value_reg_name name = name ^ "_value"

(* the final word index of an implicit transfer, as integer arithmetic on
   the captured count [var] *)
let implicit_last_word spec (io : Spec.io) var =
  let w = spec.Spec.bus_width in
  let ew = io.Spec.io_width in
  let v = To_int (Ref (value_reg_name var)) in
  let minus_one e = Binop (Sub, e, Int_lit 1) in
  if io.Spec.fields <> [] then
    let wpe =
      List.fold_left
        (fun acc (_, (i : Ctype.info)) -> acc + ((i.Ctype.width + w - 1) / w))
        0 io.Spec.fields
    in
    minus_one (Binop (Mul, v, Int_lit wpe))
  else if ew > w then minus_one (Binop (Mul, v, Int_lit ((ew + w - 1) / w)))
  else if Spec.effective_packed spec io then
    let per = w / ew in
    minus_one (Binop (Div, Binop (Add, v, Int_lit (per - 1)), Int_lit per))
  else minus_one v

(* count the words of [io]'s transfer in [counter]: [last] runs on the
   final word, after the counter is cleared (and at once for a single word) *)
let advance spec (io : Spec.io) counter last =
  match (static_words spec io, io.Spec.count) with
  | Some 1, _ | None, (None | Some (Ast.Fixed _)) -> last
  | Some n, _ ->
      let w = bits_for (n - 1) in
      [
        If
          ( [
              ( Binop (Eq, Ref counter, Lit (n - 1, w)),
                Assign (Ref counter, All_zeros) :: last );
            ],
            [ Assign (Ref counter, Binop (Add, Ref counter, Lit (1, w))) ] );
      ]
  | None, Some (Ast.Var v) ->
      [
        If
          ( [
              ( Binop (Eq, To_int (Ref counter), implicit_last_word spec io v),
                Assign (Ref counter, All_zeros) :: last );
            ],
            [ Assign (Ref counter, Binop (Add, Ref counter, Int_lit 1)) ] );
      ]

let stub_constants (f : Spec.func) =
  let state_w = state_width f in
  List.mapi
    (fun i name -> { const_name = name; const_width = Some state_w; const_value = i })
    (state_names f)

let stub_signals spec (f : Spec.func) =
  let state_w = state_width f in
  let base =
    [
      { sig_name = "cur_state"; sig_width = state_w };
      { sig_name = "next_state"; sig_width = state_w };
    ]
  in
  let counters =
    List.concat_map
      (fun (io : Spec.io) ->
        let c =
          match static_words spec io with
          | Some 1 -> []  (* single-word input needs no tracking register *)
          | Some n -> [ { sig_name = counter_name io; sig_width = bits_for (n - 1) } ]
          | None -> [ { sig_name = counter_name io; sig_width = 32 } ]
        in
        let v =
          if io.Spec.used_as_index then
            [ { sig_name = value_reg_name io.io_name; sig_width = 32 } ]
          else []
        in
        c @ v)
      f.Spec.inputs
  in
  let rb_counters =
    List.filter_map
      (fun (io : Spec.io) ->
        match static_words spec io with
        | Some 1 -> None
        | Some n ->
            Some { sig_name = io.Spec.io_name ^ "_rb_counter"; sig_width = bits_for (n - 1) }
        | None -> Some { sig_name = io.Spec.io_name ^ "_rb_counter"; sig_width = 32 })
      (Spec.readbacks f)
  in
  let out =
    match f.Spec.output with
    | Some o ->
        let words = static_words spec o in
        (match words with
        | Some 1 | None -> []
        | Some n -> [ { sig_name = "result_counter"; sig_width = bits_for (n - 1) } ])
        @ (match o.Spec.count with
          | Some (Ast.Var _) -> [ { sig_name = "result_counter"; sig_width = 32 } ]
          | _ -> [])
    | None -> []
  in
  base @ counters @ rb_counters @ out

let my_func_id_cond = Binop (Eq, Ref "FUNC_ID", Int_ref "C_MY_FUNC_ID")

let write_arrives = Binop (And, Ref "DATA_IN_VALID", my_func_id_cond)
let read_arrives = Binop (And, Ref "IO_ENABLE", Binop (And, Not (Ref "DATA_IN_VALID"), my_func_id_cond))

(* the ICOB arm for one input state *)
let input_state_arm spec (io : Spec.io option) next_state =
  let goto st = Assign (Ref "next_state", Ref st) in
  match io with
  | None ->
      (* trigger state for a function with no declared inputs *)
      ( Choice_ref "IN_TRIGGER",
        [
          Comment "Waiting for the activation (trigger) write";
          If
            ( [ (write_arrives, [ Assign (Ref "IO_DONE", Bool_lit true); goto next_state ]) ],
              [] );
        ] )
  | Some io ->
      let name = io.Spec.io_name in
      let words = static_words spec io in
      let x = (* describe the transfer for the generated comments *)
        match io.Spec.count with
        | None -> "1 write operation(s)"
        | Some (Ast.Fixed n) ->
            String.concat ""
              [
                Emit.int_to_string n;
                " element(s) / ";
                (match words with Some w -> Emit.int_to_string w | None -> "?");
                " write operation(s)";
              ]
        | Some (Ast.Var v) ->
            String.concat "" [ "a variable number ("; v; ") of write operation(s)" ]
      in
      let store_comment =
        Comment
          (String.concat ""
             [
               "TODO (user): store DATA_IN for "; name;
               " (e.g. into a register file or Block RAM)";
             ])
      in
      let ignore_comment =
        (* §5.3.1: note how many trailing bits of the last word are padding *)
        match io.Spec.count with
        | Some (Ast.Fixed n) ->
            let plan_x =
              Plan.xfer_of_io spec Plan.In io ~values:(fun _ -> n)
            in
            if plan_x.Plan.ignore_bits > 0 then
              [
                Comment
                  (String.concat ""
                     [
                       "NOTE: the final word carries ";
                       Emit.int_to_string plan_x.Plan.ignore_bits;
                       " trailing bit(s) of padding that can safely be ignored";
                     ]);
              ]
            else []
        | _ -> []
      in
      let capture_index =
        if io.Spec.used_as_index then
          [ Assign (Ref (value_reg_name name), Slice ("DATA_IN", 31, 0)) ]
        else []
      in
      ( Choice_ref ("IN_" ^ name),
        [ Comment (String.concat "" [ "Handling "; x; " for input '"; name; "'" ]) ]
        @ ignore_comment
        @ [
            If
              ( [
                  ( write_arrives,
                    (store_comment :: capture_index)
                    @ advance spec io (counter_name io) [ goto next_state ]
                    @ [ Assign (Ref "IO_DONE", Bool_lit true) ] );
                ],
                [] );
          ] )

let calc_state_arm f =
  let next =
    match Spec.readbacks f with
    | io :: _ -> "OUT_" ^ io.Spec.io_name
    | [] ->
        if f.Spec.output <> None || Spec.blocking_ack f then "OUT_RESULT"
        else List.hd (state_names f)
  in
  ( Choice_ref "CALC",
    [
      Comment "TODO (user): calculation logic goes here; add further CALC";
      Comment "states if the operation needs multiple cycles (§5.3.1)";
      Assign (Ref "next_state", Ref next);
    ] )

(* one serving arm per by-reference parameter (§10.2): the driver reads the
   updated values back before the return value *)
let readback_state_arm spec (io : Spec.io) next_state =
  let counter = io.Spec.io_name ^ "_rb_counter" in
  let serve =
    [
      Comment
        (String.concat ""
           [ "TODO (user): drive the updated '"; io.Spec.io_name; "' word onto DATA_OUT" ]);
      Assign (Ref "DATA_OUT_VALID", Bool_lit true);
      Assign (Ref "IO_DONE", Bool_lit true);
    ]
  in
  ( Choice_ref ("OUT_" ^ io.Spec.io_name),
    [
      Comment
        (String.concat ""
           [ "Reading back by-reference parameter '"; io.Spec.io_name; "' (§10.2)" ]);
      Assign (Ref "CALC_DONE", Bool_lit true);
      If
        ( [
            ( read_arrives,
              serve @ advance spec io counter [ Assign (Ref "next_state", Ref next_state) ] );
          ],
          [] );
    ] )

let output_state_arm spec (f : Spec.func) =
  let first = List.hd (state_names f) in
  let goto_first = Assign (Ref "next_state", Ref first) in
  match f.Spec.output with
  | None when Spec.blocking_ack f ->
      Some
        ( Choice_ref "OUT_RESULT",
          [
            Comment "Pseudo output state: report completion to the driver (§5.3.1)";
            Assign (Ref "CALC_DONE", Bool_lit true);
            If
              ( [
                  ( read_arrives,
                    [
                      Assign (Ref "DATA_OUT", All_zeros);
                      Assign (Ref "DATA_OUT_VALID", Bool_lit true);
                      Assign (Ref "IO_DONE", Bool_lit true);
                      Assign (Ref "CALC_DONE", Bool_lit false);
                      goto_first;
                    ] );
                ],
                [] );
          ] )
  | None -> None
  | Some o ->
      let serve_word =
        [
          Comment "TODO (user): drive the result word onto DATA_OUT";
          Assign (Ref "DATA_OUT_VALID", Bool_lit true);
          Assign (Ref "IO_DONE", Bool_lit true);
        ]
      in
      let finish = [ Assign (Ref "CALC_DONE", Bool_lit false); goto_first ] in
      let body = serve_word @ advance spec o "result_counter" finish in
      Some
        ( Choice_ref "OUT_RESULT",
          [
            Assign (Ref "CALC_DONE", Bool_lit true);
            If ([ (read_arrives, body) ], []);
          ] )

let stub_process spec (f : Spec.func) =
  let states = state_names f in
  let first = List.hd states in
  let input_arms =
    match f.Spec.inputs with
    | [] -> [ input_state_arm spec None "CALC" ]
    | ios ->
        List.mapi
          (fun i io ->
            let next = List.nth states (i + 1) in
            input_state_arm spec (Some io) next)
          ios
  in
  let readback_arms =
    match Spec.readbacks f with
    | [] -> []
    | rbs ->
        let nexts =
          List.tl (List.map (fun (io : Spec.io) -> "OUT_" ^ io.Spec.io_name) rbs)
          @ [
              (if f.Spec.output <> None || Spec.blocking_ack f then "OUT_RESULT"
               else first);
            ]
        in
        List.map2 (fun io next -> readback_state_arm spec io next) rbs nexts
  in
  let arms =
    input_arms
    @ [ calc_state_arm f ]
    @ readback_arms
    @ (match output_state_arm spec f with Some a -> [ a ] | None -> [])
    @ [ (Choice_others, [ Assign (Ref "next_state", Ref first) ]) ]
  in
  {
    proc_name = "icob";
    clocked = true;
    sensitivity = [];
    body =
      [
        If
          ( [
              ( Ref "RST",
                [
                  Assign (Ref "next_state", Ref first);
                  Assign (Ref "IO_DONE", Bool_lit false);
                  Assign (Ref "DATA_OUT_VALID", Bool_lit false);
                  Assign (Ref "CALC_DONE", Bool_lit false);
                ] );
            ],
            [
              Comment "default de-assertions: strobes last a single cycle";
              Assign (Ref "IO_DONE", Bool_lit false);
              Assign (Ref "DATA_OUT_VALID", Bool_lit false);
              Case (Ref "cur_state", arms);
            ] );
      ];
  }

let fsm_process =
  {
    proc_name = "smb";
    clocked = false;
    sensitivity = [ "next_state" ];
    body =
      [
        Comment "SMB: propagate state transitions requested by the ICOB (§5.3.2)";
        Assign (Ref "cur_state", Ref "next_state");
      ];
  }

let design spec (f : Spec.func) =
  let bw = spec.Spec.bus_width in
  let fidw = spec.Spec.func_id_width in
  {
    header =
      [
        String.concat ""
          [ "func_"; f.Spec.name; ": user-logic stub for device "; spec.Spec.device_name ];
        "Generated by Splice: fill in the CALC state(s) and data storage;";
        "all bus-level signalling is already handled (Ch 5).";
      ];
    name = "func_" ^ f.Spec.name;
    generics = [ { gen_name = "C_MY_FUNC_ID"; gen_default = f.Spec.func_id } ];
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
        { port_name = "CALC_DONE"; dir = Out; width = 1 };
      ];
    constants = stub_constants f;
    signals = stub_signals spec f;
    body = [ Proc (stub_process spec f); Proc fsm_process ];
  }

let generate spec f =
  let d = design spec f in
  match spec.Spec.hdl with
  | Ast.Vhdl -> Vhdl.to_string d
  | Ast.Verilog -> Verilog.to_string d

let file_name spec (f : Spec.func) =
  String.concat ""
    [ "func_"; f.Spec.name; (match spec.Spec.hdl with Ast.Vhdl -> ".vhd" | Ast.Verilog -> ".v") ]
