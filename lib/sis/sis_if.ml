open Splice_sim
open Splice_bits

type transfer = Idle | Write | Read

type t = {
  rst : Signal.t;
  data_in : Signal.t;
  data_in_valid : Signal.t;
  io_enable : Signal.t;
  func_id : Signal.t;
  data_out : Signal.t;
  data_out_valid : Signal.t;
  io_done : Signal.t;
  calc_done : Signal.t;
  decoder : decoder;
}

(* field meanings are documented in the interface *)
and decoder = {
  mutable bound : bool; mutable tick : int; mutable first : bool;
  mutable reset : bool; mutable strobe : bool; mutable valid : bool;
  mutable done_ : bool; mutable read_data : bool; mutable fid : int;
  mutable write : bool; mutable read : bool; mutable word_done : bool;
  mutable opens : bool; mutable closes : bool; mutable wait : bool;
  mutable pending : transfer; mutable held_fid : int;
  mutable held_data : Bits.t; mutable data_moved : bool;
  mutable presented : int; mutable waited : int;
  mutable prev_done : bool; mutable prev_strobe : bool;
  mutable last_grant : int;
}

let new_decoder () =
  {
    bound = false; tick = -1; first = true;
    reset = false; strobe = false; valid = false; done_ = false;
    read_data = false; fid = 0; write = false; read = false;
    word_done = false; opens = false; closes = false; wait = false;
    pending = Idle; held_fid = 0; held_data = Bits.zero 1;
    data_moved = false; presented = 0; waited = 0;
    prev_done = false; prev_strobe = false; last_grant = 0;
  }

let create ?(prefix = "sis") ~bus_width ~func_id_width ~instances () =
  let s name width = Signal.create ~name:(prefix ^ "." ^ name) width in
  {
    rst = s "RST" 1;
    data_in = s "DATA_IN" bus_width;
    data_in_valid = s "DATA_IN_VALID" 1;
    io_enable = s "IO_ENABLE" 1;
    func_id = s "FUNC_ID" func_id_width;
    data_out = s "DATA_OUT" bus_width;
    data_out_valid = s "DATA_OUT_VALID" 1;
    io_done = s "IO_DONE" 1;
    calc_done = s "CALC_DONE" (max 1 instances);
    decoder = new_decoder ();
  }

let of_spec ?prefix (spec : Splice_syntax.Spec.t) =
  create ?prefix ~bus_width:spec.bus_width ~func_id_width:spec.func_id_width
    ~instances:spec.total_instances ()

let signals t =
  [
    t.rst;
    t.data_in;
    t.data_in_valid;
    t.io_enable;
    t.func_id;
    t.data_out;
    t.data_out_valid;
    t.io_done;
    t.calc_done;
  ]

let write_presented t = Signal.get_bool t.io_enable && Signal.get_bool t.data_in_valid
let read_requested t = Signal.get_bool t.io_enable && not (Signal.get_bool t.data_in_valid)

(* ---- the protocol decoder ---------------------------------------- *)

let watch kernel t =
  let d = t.decoder in
  if not d.bound then begin
    d.bound <- true;
    (* the state a fresh interface starts in; the next tick's facts are
       decoded from the lines *)
    Kernel.at_reset kernel (fun () ->
        d.tick <- -1;
        d.pending <- Idle;
        d.prev_done <- false;
        d.prev_strobe <- false;
        d.last_grant <- 0)
  end

let domain kernel ~bus =
  match Kernel.find_domain kernel (bus ^ ".pclk") with
  | Some dom -> dom
  | None -> Kernel.base_domain kernel

(* Close the last decoded tick: its facts decide the transfer outstanding
   entering the next one. *)
let advance d =
  if d.reset then begin
    d.pending <- Idle;
    d.prev_done <- false;
    d.prev_strobe <- false;
    d.last_grant <- 0
  end
  else begin
    d.prev_done <- d.done_;
    d.prev_strobe <- d.strobe;
    if (d.write || d.read) && d.fid <> 0 then d.last_grant <- d.fid;
    if d.opens then begin
      d.pending <- (if d.write then Write else Read);
      d.held_fid <- d.fid;
      d.presented <- d.tick
    end
    else if d.closes then d.pending <- Idle
  end

let sample t d =
  let rst = Signal.get_bool t.rst in
  let strobe = Signal.get_bool t.io_enable in
  let div = Signal.get_bool t.data_in_valid in
  let dov = Signal.get_bool t.data_out_valid in
  let done_ = Signal.get_bool t.io_done in
  d.reset <- rst;
  d.strobe <- strobe;
  d.valid <- div;
  d.done_ <- done_;
  d.read_data <- dov;
  d.fid <- Signal.get_int t.func_id;
  d.write <- (not rst) && strobe && div;
  d.read <- (not rst) && strobe && not div;
  d.word_done <- done_ && not dov;
  (* IO_DONE answers a write, DATA_OUT_VALID a read (Fig 4.3) *)
  d.opens <- (d.write && not done_) || (d.read && not dov);
  d.closes <-
    (match d.pending with
    | Idle -> false
    | Write -> rst || strobe || done_
    | Read -> rst || strobe || dov);
  d.wait <- d.pending <> Idle && not d.closes;
  d.waited <- d.tick - d.presented;
  let data = Signal.get t.data_in in
  d.data_moved <- d.pending = Write && not (Bits.equal d.held_data data);
  (* the word a write leaves outstanding must hold from the next tick on *)
  if d.write && d.opens then d.held_data <- data

let decode t tick =
  let d = t.decoder in
  if tick <> d.tick then begin
    d.first <- d.tick < 0;
    if not d.first then advance d;
    d.tick <- tick;
    sample t d
  end;
  d

(* The facts of a tick repeat on every later tick with the same lines
   when closing the tick ([advance]) leaves the transfer state as it is:
   nothing opens or closes, the previous-tick lines are these ones, and
   the last grant does not move (in reset, the state is already the one
   reset leaves). [waited] still grows, read off the tick. *)
let quiet d =
  if d.reset then
    d.pending = Idle && (not d.prev_done) && (not d.prev_strobe) && d.last_grant = 0
  else
    (not d.opens) && (not d.closes)
    && d.prev_done = d.done_ && d.prev_strobe = d.strobe
    && ((not (d.write || d.read)) || d.fid = 0 || d.fid = d.last_grant)

(* a protocol watcher's check reads only the decoded facts, so it sleeps
   while they repeat; the kernel wakes a sleeping check on any signal
   change *)
let nap s d = if Sleep.honoured s && quiet d then Sleep.sleep s
