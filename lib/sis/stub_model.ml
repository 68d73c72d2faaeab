open Splice_sim
open Splice_syntax
open Splice_bits

type ports = {
  data_out : Signal.t;
  data_out_valid : Signal.t;
  io_done : Signal.t;
  calc_done : Signal.t;
}

let create_ports ?(prefix = "stub") ~bus_width () =
  let s name width = Signal.create ~name:(prefix ^ "." ^ name) width in
  {
    data_out = s "DATA_OUT" bus_width;
    data_out_valid = s "DATA_OUT_VALID" 1;
    io_done = s "IO_DONE" 1;
    calc_done = s "CALC_DONE" 1;
  }

type behavior = {
  calc_cycles : (string * int64 list) list -> int;
  compute : (string * int64 list) list -> int64 list;
  write_back : (string * int64 list) list -> (string * int64 list) list;
}

let behavior ?(cycles = 1) ?(write_back = fun _ -> []) compute =
  { calc_cycles = (fun _ -> cycles); compute; write_back }

let null_behavior =
  { calc_cycles = (fun _ -> 0); compute = (fun _ -> []); write_back = (fun _ -> []) }

type state = Input of int | Calc | Output

type phase =
  | PIn of {
      io : Spec.io option;  (* None = implicit trigger word (no-input funcs) *)
      idx : int;
      expected : int;
      elems : int;
      got : Bits.t list;  (* newest first *)
      n_got : int;  (* the length of [got] *)
      rest : Spec.io list;
    }
  | PCalc of int
      (* the edge the calculation ends on: a deadline, so a bank that
         sleeps through the calculation states ends it on the same edge *)
  | POut of Bits.t list

type t = {
  spec : Spec.t;
  func : Spec.func;
  instance : int;
  my_id : int;
  sis : Sis_if.t;
  ports : ports;
  behavior : behavior;
  mutable phase : phase;
  mutable received : (string * int64 list) list;  (* input order *)
  mutable pending_read : bool;
  mutable pending_write : bool;
      (* a write was presented (IO_ENABLE strobe) while we could not accept;
         DATA_IN/DATA_IN_VALID stay static until IO_DONE (§4.2.1), so we
         consume it as soon as an input state is (re-)entered *)
  mutable completions : int;
  mutable comp : Component.t;
  mutable bank : Sleep.t;  (* the bank's sleep handle: its [Sleep.now] dates deadlines *)
}

let values_fn t var =
  match Spec.assoc_name var t.received with
  | Some (v :: _) -> Int64.to_int v
  | Some [] | None ->
      failwith
        (Printf.sprintf "stub %s: implicit index %s not yet received"
           t.func.Spec.name var)

let enter_input t idx = function
  | [] when idx = 0 && t.func.Spec.inputs = [] ->
      (* no declared inputs: a single trigger word starts the function *)
      t.phase <-
        PIn { io = None; idx; expected = 1; elems = 0; got = []; n_got = 0; rest = [] }
  | [] -> (
      (* all inputs consumed: calculation *)
      let cycles = t.behavior.calc_cycles t.received in
      (* minimum one calc state (§5.3.1) *)
      let cycles = if cycles <= 0 then 1 else cycles in
      t.phase <- PCalc (Sleep.now t.bank + cycles))
  | io :: rest ->
      let x = Plan.xfer_of_io t.spec Plan.In io ~values:(values_fn t) in
      t.phase <-
        PIn
          {
            io = Some io;
            idx;
            expected = x.Plan.words;
            elems = x.Plan.elems;
            got = [];
            n_got = 0;
            rest;
          }

let reset_to_start t =
  t.received <- [];
  t.pending_read <- false;
  (* pending_write survives: a word presented during the previous call's
     output state belongs to the next call and is consumed on re-entry *)
  (match t.func.Spec.inputs with
  | [] -> enter_input t 0 []
  | inputs -> enter_input t 0 inputs);
  Signal.set_next_bool t.ports.calc_done false

let enter_output t =
  (* readback words for by-reference parameters come first, in declaration
     order, then the declared return value (§10.2) *)
  let updates = t.behavior.write_back t.received in
  let readback_words =
    List.concat_map
      (fun (io : Spec.io) ->
        let x = Plan.xfer_of_io t.spec Plan.Out io ~values:(values_fn t) in
        let elems =
          match Spec.assoc_name io.Spec.io_name updates with
          | Some vs ->
              if List.length vs <> Plan.expected_values x then
                failwith
                  (Printf.sprintf
                     "stub %s: write_back for %s produced %d element(s), plan \
                      expects %d"
                     t.func.Spec.name io.Spec.io_name (List.length vs)
                     (Plan.expected_values x))
              else vs
          | None -> (
              (* unchanged: echo the received values *)
              match Spec.assoc_name io.Spec.io_name t.received with
              | Some vs -> vs
              | None -> List.init (Plan.expected_values x) (fun _ -> 0L))
        in
        Plan.marshal ~word_width:t.spec.Spec.bus_width x elems)
      (Spec.readbacks t.func)
  in
  let result_words =
    match t.func.Spec.output with
    | Some io ->
        let x = Plan.xfer_of_io t.spec Plan.Out io ~values:(values_fn t) in
        let elems = t.behavior.compute t.received in
        if List.length elems <> Plan.expected_values x then
          failwith
            (Printf.sprintf
               "stub %s: behaviour produced %d output element(s), plan \
                expects %d"
               t.func.Spec.name (List.length elems) (Plan.expected_values x));
        Plan.marshal ~word_width:t.spec.Spec.bus_width x elems
    | None ->
        ignore (t.behavior.compute t.received);
        if Spec.blocking_ack t.func then [ Bits.zero t.spec.Spec.bus_width ]
        else []
  in
  let words = readback_words @ result_words in
  if words = [] then begin
    (* nowait function: no output state, straight back to inputs *)
    t.completions <- t.completions + 1;
    t.received <- [];
    enter_input t 0 t.func.Spec.inputs
  end
  else begin
    t.phase <- POut words;
    Signal.set_next_bool t.ports.calc_done true
  end

let selected t = Signal.get_int t.sis.Sis_if.func_id = t.my_id
let in_input_state t = match t.phase with PIn _ -> true | _ -> false

let write_presented_to_me t =
  selected t
  && Signal.get_bool t.sis.Sis_if.data_in_valid
  && (Signal.get_bool t.sis.Sis_if.io_enable || t.pending_write)
  && in_input_state t

let write_stalled t =
  (* presented but unconsumable: remember it for later *)
  selected t && Sis_if.write_presented t.sis && not (in_input_state t)

let read_requested_now t = selected t && Sis_if.read_requested t.sis

let read_served_now t = (t.pending_read && selected t) || read_requested_now t

(* an output word is on offer and a read wants it *)
let serving t =
  match t.phase with POut (_ :: _) -> read_served_now t | _ -> false

(* What [comb] drives: the word, DATA_OUT_VALID and IO_DONE. All three are
   zero unless FUNC_ID selects the stub. *)
let outputs t =
  match t.phase with
  | POut (w :: _) when read_served_now t -> (w, true, true)
  | _ -> (Bits.zero (Signal.width t.ports.data_out), false, write_presented_to_me t)

(* [outputs], driven; written out, since a returned tuple would allocate on
   every evaluation *)
let comb t =
  match t.phase with
  | POut (w :: _) when read_served_now t ->
      Signal.set t.ports.data_out w;
      Signal.set_bool t.ports.data_out_valid true;
      Signal.set_bool t.ports.io_done true
  | _ ->
      Signal.set t.ports.data_out (Bits.zero (Signal.width t.ports.data_out));
      Signal.set_bool t.ports.data_out_valid false;
      Signal.set_bool t.ports.io_done (write_presented_to_me t)

let finalize_input t io got_rev =
  match io with
  | None -> ()  (* trigger word carries no data *)
  | Some (io : Spec.io) ->
      let x = Plan.xfer_of_io t.spec Plan.In io ~values:(values_fn t) in
      let elems =
        Plan.unmarshal ~word_width:t.spec.Spec.bus_width x (List.rev got_rev)
        |> Plan.sign_extend_elems ~elem_width:x.Plan.elem_width
             ~signed:io.Spec.signed
      in
      t.received <- t.received @ [ (io.io_name, elems) ]

(* [comb] reads the phase only as input / calc / output-with-its-head-word:
   a [PIn] word accumulation and a move to the next input leave what it
   drives unchanged *)
let same_view a b =
  match (a, b) with
  | PIn _, PIn _ | PCalc _, PCalc _ | POut [], POut [] -> true
  | POut (w :: _), POut (v :: _) -> Bits.equal w v
  | _ -> false

let step t =
  if Signal.get_bool t.sis.Sis_if.rst then begin
    t.pending_write <- false;
    reset_to_start t
  end
  else begin
    (* capture the serve decision against the pre-edge state: this is what
       the comb phase actually drove onto the ports this cycle *)
    let served = serving t in
    (match t.phase with
    | PIn p when write_presented_to_me t ->
        t.pending_write <- false;
        let got = Signal.get t.sis.Sis_if.data_in :: p.got and n_got = p.n_got + 1 in
        if n_got >= p.expected then begin
          finalize_input t p.io got;
          enter_input t (p.idx + 1) p.rest
        end
        else t.phase <- PIn { p with got; n_got }
    | PIn _ -> ()
    | PCalc ends ->
        if write_stalled t then t.pending_write <- true;
        if Sleep.now t.bank >= ends then enter_output t
    | POut _ -> if write_stalled t then t.pending_write <- true);
    (* read service / pending management *)
    (if served then begin
       t.pending_read <- false;
       match t.phase with
       | POut [ _last ] ->
           t.completions <- t.completions + 1;
           reset_to_start t
       | POut (_ :: rest) -> t.phase <- POut rest
       | _ -> assert false
     end
     else if read_requested_now t then t.pending_read <- true)
  end

(* the clocked body, announcing every change of the state [comb] reads *)
let seq t =
  let phase = t.phase in
  let pending_read = t.pending_read and pending_write = t.pending_write in
  step t;
  if
    t.pending_read <> pending_read
    || t.pending_write <> pending_write
    || not (same_view phase t.phase)
  then Component.rearm t.comp

let calculating t = match t.phase with PCalc _ -> true | PIn _ | POut _ -> false

(* After a step: with the lines as they are, which later edge moves a
   stub? Outside reset and with no strobe, only a calculation ending, or
   the selected stub taking a write it held pending or serving a read it
   held pending. [first_move] is the first such edge, [max_int] for none,
   [-1] for the next one. *)
let rec first_move stubs ~id ~valid i (until : int) =
  if i = Array.length stubs then until
  else
    let t = Array.unsafe_get stubs i in
    match t.phase with
    | PCalc ends ->
        first_move stubs ~id ~valid (i + 1) (if ends < until then ends else until)
    | PIn _ when t.my_id = id && valid && t.pending_write -> -1
    | POut (_ :: _) when t.my_id = id && t.pending_read -> -1
    | PIn _ | POut _ -> first_move stubs ~id ~valid (i + 1) until

(* The one clocked process of a peripheral's stubs (§4.2): RST and FUNC_ID
   are read once, and only the stubs that can act on this edge are stepped
   — in reset, selected, or counting down their calculation states. For
   any other stub [step] is an exact no-op: every write, read and pending
   path in it goes through [selected], and the pending flags are only set
   while selected. Stepping a stub queues writes ([set_next]) and mutates
   only its own record, so reading the lines once for all is what each
   stub's own reads would have returned. The bank then sleeps until the
   first edge that moves a stub, woken earlier by a change of the lines
   it reads. *)
let clock sis sleep stubs () =
  let rst = Signal.get_bool sis.Sis_if.rst in
  let id = Signal.get_int sis.Sis_if.func_id in
  for i = 0 to Array.length stubs - 1 do
    let t = Array.unsafe_get stubs i in
    if rst || t.my_id = id || calculating t then seq t
  done;
  if Sleep.honoured sleep && not (rst || Signal.get_bool sis.Sis_if.io_enable) then begin
    let valid = Signal.get_bool sis.Sis_if.data_in_valid in
    let until = first_move stubs ~id ~valid 0 max_int in
    if until >= 0 then Sleep.sleep_until sleep until
  end

(* the component and sleep handle of a stub until [bank] sets the
   bank's; shared by every stub, since only a banked stub is stepped *)
let unbanked = Component.make "stub"
let unclocked = Sleep.create ()

let make ~spec ~func ~instance ~sis ~ports ~behavior =
  let t =
    {
      spec;
      func;
      instance;
      my_id = func.Spec.func_id + instance;
      sis;
      ports;
      behavior;
      phase = PCalc 1;
      received = [];
      pending_read = false;
      pending_write = false;
      completions = 0;
      comp = unbanked;
      bank = unclocked;
    }
  in
  (match func.Spec.inputs with [] -> enter_input t 0 [] | l -> enter_input t 0 l);
  t

(* The one combinational process of a peripheral's stubs. Every non-zero
   output of [comb] goes through [selected], and a stub's ports are
   written only by its [comb], so after any evaluation of the bank only
   the stub FUNC_ID selected then can hold non-zero outputs. An
   evaluation therefore runs [comb] only for the stub FUNC_ID selects now
   and the one it selected at the previous evaluation ([last]), in
   registration order; every other stub already drives the zeros its
   [comb] would. [last] is [-1] after a build or reset: that evaluation
   runs every stub. [comb] reads the selection/strobe lines plus clocked
   state (the phase view and the pending flags) whose changes each stub's
   [seq] announces on the bank; DATA_IN is sampled by [seq], not [comb]. *)
let select sis last stubs () =
  let id = Signal.get_int sis.Sis_if.func_id in
  let prev = !last in
  for i = 0 to Array.length stubs - 1 do
    let t = Array.unsafe_get stubs i in
    if prev < 0 || t.my_id = id || t.my_id = prev then comb t
  done;
  last := id

let reset t =
  t.received <- [];
  t.pending_read <- false;
  t.pending_write <- false;
  t.completions <- 0;
  match t.func.Spec.inputs with [] -> enter_input t 0 [] | l -> enter_input t 0 l

let bank = function
  | [] -> None
  | first :: rest as stubs ->
      let sis = first.sis in
      if List.exists (fun t -> t.sis != sis) rest then
        invalid_arg "Stub_model.bank: stubs of different interfaces";
      let sleep =
        Sleep.create
          ~wake_on:
            [
              sis.Sis_if.rst; sis.Sis_if.func_id; sis.Sis_if.io_enable;
              sis.Sis_if.data_in_valid;
            ]
          ()
      in
      let arr = Array.of_list stubs and last = ref (-1) in
      let comp =
        Component.make ~sleep
          ~comb:
            ( [ sis.Sis_if.func_id; sis.Sis_if.io_enable; sis.Sis_if.data_in_valid ],
              select sis last arr )
          ~seq:(clock sis sleep arr)
          ~reset:(fun () ->
            List.iter reset stubs;
            last := -1)
          (Printf.sprintf "stub:%s#%d" first.func.Spec.name first.instance)
      in
      List.iter
        (fun t ->
          t.bank <- sleep;
          t.comp <- comp)
        stubs;
      Some comp

let component t = t.comp
let ports t = t.ports
let func_id t = t.my_id

let state t =
  match t.phase with
  | PIn { idx; _ } -> Input idx
  | PCalc _ -> Calc
  | POut _ -> Output

let completions t = t.completions

let clocked_state t =
  let words l = String.concat "," (List.map Bits.to_hex_string l) in
  let phase =
    match t.phase with
    | PIn { io; idx; expected; elems; got; n_got; rest } ->
        Printf.sprintf "in %s #%d got %d/%d words [%s], %d elems, %d more inputs"
          (match io with Some io -> io.Spec.io_name | None -> "-")
          idx n_got expected (words got) elems (List.length rest)
    | PCalc ends -> Printf.sprintf "calc until edge %d" ends
    | POut l -> Printf.sprintf "out [%s]" (words l)
  in
  let received =
    List.map
      (fun (name, vs) -> name ^ "=" ^ String.concat "," (List.map Int64.to_string vs))
      t.received
  in
  Printf.sprintf "%s; received [%s]; pending read %b write %b; completions %d"
    phase (String.concat " " received) t.pending_read t.pending_write t.completions
