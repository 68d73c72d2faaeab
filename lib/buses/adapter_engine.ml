open Splice_sim
open Splice_sis
open Splice_bits
open Splice_obs

type config = {
  name : string;
  setup_cycles : int;
  write_word_gap : int;
  read_word_gap : int;
  teardown_cycles : int;
  strictly_sync : bool;
  dma_setup_transactions : int;
}

(* [phase] describes what is visible on the SIS lines *during* the current
   cycle; transitions (set_next) program what the next cycle will show.
   Every countdown is a deadline — the edge of the engine's domain on which
   it ends — so an engine that sleeps through it ends it on the same edge
   as one stepped on every edge. *)
type phase =
  | Idle
  | Setup of int  (* the edge the transfer starts on *)
  | Writing of Bits.t list  (* head is the word currently presented *)
  | WGap of int * Bits.t list  (* the edge the next word is presented on *)
  | ReadPending of int  (* words still to collect, current one requested *)
  | RGap of int * int  (* the edge of the next strobe, words remaining *)
  | SyncSample of int
  | StatusSample
  | Teardown of int  (* the edge the bus goes idle on *)

type t = {
  cfg : config;
  sis : Sis_if.t;
  mutable phase : phase;
  mutable req : Bus_port.req option;  (* submitted, not yet started *)
  mutable active : Bus_port.req option;  (* being executed *)
  mutable collected : Bits.t list;  (* reversed *)
  mutable busy_flag : bool;
  mutable reset_req : bool;
  mutable gap_w : int;
  mutable gap_r : int;
  mutable prev_calc : Bits.t option;
  mutable irq_flag : bool;
      (* completion-interrupt latch (§10.2): set on any CALC_DONE rising
         edge, cleared when a status-register read acknowledges it *)
  mutable comp : Component.t;
  sleep : Sleep.t;
      (* asleep while idle, counting down, or stalled on the stub: woken
         by a submit or reset pulse, and by RST, CALC_DONE (the IRQ latch
         watches it), IO_DONE and DATA_OUT_VALID *)
  mutable waiters : Sleep.t list;
      (* the masters sleeping on the port ([Bus_port.watch]), woken when
         [busy_flag] falls or [irq_flag] rises *)
  obs : Obs.t;
  m_transfers : Metrics.counter;
  m_words_written : Metrics.counter;
  m_words_read : Metrics.counter;
  m_wait_states : Metrics.counter;  (* stub not ready: IO_DONE/DOV low *)
  m_overhead : Metrics.counter;  (* setup, teardown, inter-word gaps *)
  h_burst : Metrics.histogram;
  (* flight recorder (if the obs context carries one) plus the interned
     "bus/<name>" track id, resolved once at engine creation *)
  rec_ : Recorder.t option;
  rec_track : int;
  (* transaction-level coverpoints of the build's coverage map (if one
     was given and declared for this bus), resolved once at engine
     creation — same interning discipline as [rec_track] *)
  cover_txn : Splice_cover.Bus_cover.txn option;
}

let deassert t =
  Signal.set_next_bool t.sis.Sis_if.data_in_valid false;
  Signal.set_next_bool t.sis.Sis_if.io_enable false;
  Signal.set_next t.sis.Sis_if.data_in (Bits.zero (Signal.width t.sis.Sis_if.data_in))

(* the edge [n] edges after the one in flight *)
let after t n = Sleep.now t.sleep + n

(* the bus goes idle: the masters waiting on it wake *)
let go_idle t =
  t.phase <- Idle;
  t.busy_flag <- false;
  List.iter Sleep.wake t.waiters

let end_transaction t =
  (match t.rec_ with
  | Some r -> Recorder.txn_end r ~subject:t.rec_track
  | None -> ());
  deassert t;
  t.active <- None;
  if t.cfg.teardown_cycles > 0 then t.phase <- Teardown (after t t.cfg.teardown_cycles)
  else go_idle t

let set_func_id t id = Signal.set_next_int t.sis.Sis_if.func_id id

let present_write t word =
  Signal.set_next t.sis.Sis_if.data_in word;
  Signal.set_next_bool t.sis.Sis_if.data_in_valid true;
  Signal.set_next_bool t.sis.Sis_if.io_enable true

let strobe_read t =
  Signal.set_next_bool t.sis.Sis_if.data_in_valid false;
  Signal.set_next_bool t.sis.Sis_if.io_enable true

let begin_request t req =
  t.active <- Some req;
  t.collected <- [];
  (match t.rec_ with
  | Some r ->
      Recorder.txn_begin r ~subject:t.rec_track
        ~words:(Bus_port.words_of_req req)
  | None -> ());
  (match t.cover_txn with
  | Some pts ->
      let dir, func_id =
        match req with
        | Bus_port.Write { func_id; _ } -> (`Write, func_id)
        | Bus_port.Read { func_id; _ } -> (`Read, func_id)
        | Bus_port.Dma_write { func_id; _ } -> (`Dma_write, func_id)
        | Bus_port.Dma_read { func_id; _ } -> (`Dma_read, func_id)
      in
      Splice_cover.Bus_cover.sample_txn pts ~func_id ~dir
        ~words:(Bus_port.words_of_req req)
  | None -> ());
  if Obs.active t.obs then begin
    Metrics.incr t.m_transfers;
    Metrics.observe t.h_burst (Bus_port.words_of_req req)
  end;
  let dma = match req with Bus_port.Dma_write _ | Bus_port.Dma_read _ -> true | _ -> false in
  (* a DMA transfer is programmed with [dma_setup_transactions] ordinary bus
     transactions before the engine streams data without CPU involvement *)
  let setup =
    (* each DMA programming step is a full bus transaction (arbitration,
       address, data word, release); once programmed, the DMA engine owns
       the bus and needs no further address phase (§9.2.1) *)
    if dma then
      t.cfg.dma_setup_transactions * (t.cfg.setup_cycles + t.cfg.teardown_cycles + 3)
    else t.cfg.setup_cycles
  in
  t.gap_w <- (if dma then 0 else t.cfg.write_word_gap);
  t.gap_r <- (if dma then 0 else t.cfg.read_word_gap);
  let fid =
    match req with
    | Bus_port.Write { func_id; _ }
    | Bus_port.Read { func_id; _ }
    | Bus_port.Dma_write { func_id; _ }
    | Bus_port.Dma_read { func_id; _ } -> func_id
  in
  set_func_id t fid;
  (* at least one cycle to register the address phase *)
  t.phase <- Setup (after t (if setup > 0 then setup else 1))

let start_transfer t =
  match t.active with
  | None -> assert false
  | Some (Bus_port.Write { data; _ } | Bus_port.Dma_write { data; _ }) -> (
      match data with
      | [] -> end_transaction t
      | w :: _ ->
          present_write t w;
          t.phase <- Writing data)
  | Some (Bus_port.Read { func_id = 0; words = _ }) ->
      (* the adapter itself serves the status register (§4.2.2) *)
      t.phase <- StatusSample
  | Some (Bus_port.Read { words; _ } | Bus_port.Dma_read { words; _ }) ->
      if words = 0 then end_transaction t
      else begin
        strobe_read t;
        t.phase <- (if t.cfg.strictly_sync then SyncSample words else ReadPending words)
      end

let collect t word = t.collected <- word :: t.collected

let next_write_word t rest =
  match rest with
  | [] -> end_transaction t
  | w :: _ ->
      if t.gap_w > 0 then begin
        deassert t;
        t.phase <- WGap (after t t.gap_w, rest)
      end
      else begin
        present_write t w;
        t.phase <- Writing rest
      end

let next_read_word t remaining =
  if remaining = 0 then end_transaction t
  else if t.gap_r > 0 then begin
    Signal.set_next_bool t.sis.Sis_if.io_enable false;
    t.phase <- RGap (after t t.gap_r, remaining)
  end
  else begin
    strobe_read t;
    t.phase <- (if t.cfg.strictly_sync then SyncSample remaining else ReadPending remaining)
  end

(* runs every cycle: an unchanged status vector (the common case) keeps the
   stored [Some prev] and allocates nothing *)
let track_irq t =
  let cur = Signal.get t.sis.Sis_if.calc_done in
  match t.prev_calc with
  | Some prev when Bits.equal prev cur -> ()
  | Some prev ->
      let rising = Bits.logand cur (Bits.lognot prev) in
      if not (t.irq_flag || Bits.is_zero rising) then begin
        t.irq_flag <- true;
        List.iter Sleep.wake t.waiters
      end;
      t.prev_calc <- Some cur
  | None -> t.prev_calc <- Some cur

(* after a step: sleep through a countdown, or until a submit while idle
   (a stall on the stub sleeps where it is taken) *)
let nap t =
  match t.phase with
  | Idle -> if t.req = None then Sleep.sleep t.sleep
  | Setup d | WGap (d, _) | RGap (d, _) | Teardown d -> Sleep.sleep_until t.sleep d
  | Writing _ | ReadPending _ | SyncSample _ | StatusSample -> ()

let step t =
  track_irq t;
  if t.reset_req then begin
    t.reset_req <- false;
    Signal.set_next_bool t.sis.Sis_if.rst true
  end
  else if Signal.get_bool t.sis.Sis_if.rst then
    Signal.set_next_bool t.sis.Sis_if.rst false;
  match t.phase with
  | Idle -> (
      match t.req with
      | Some req ->
          t.req <- None;
          begin_request t req
      | None -> ())
  | Setup d ->
      if Obs.active t.obs then Metrics.incr t.m_overhead;
      if Sleep.now t.sleep >= d then start_transfer t
  | Writing words -> (
      if Signal.get_bool t.sis.Sis_if.io_done then begin
        if Obs.active t.obs then Metrics.incr t.m_words_written;
        match words with
        | [] -> assert false
        | _ :: rest -> next_write_word t rest
      end
      else begin
        (* stub stalled: hold data/valid static, strobe was one cycle only *)
        if Obs.active t.obs then Metrics.incr t.m_wait_states;
        Signal.set_next_bool t.sis.Sis_if.io_enable false;
        Sleep.sleep t.sleep
      end)
  | WGap (d, words) ->
      if Obs.active t.obs then Metrics.incr t.m_overhead;
      if Sleep.now t.sleep >= d then (
        match words with
        | [] -> assert false
        | w :: _ ->
            present_write t w;
            t.phase <- Writing words)
  | ReadPending remaining ->
      if Signal.get_bool t.sis.Sis_if.data_out_valid then begin
        if Obs.active t.obs then Metrics.incr t.m_words_read;
        collect t (Signal.get t.sis.Sis_if.data_out);
        Signal.set_next_bool t.sis.Sis_if.io_enable false;
        next_read_word t (remaining - 1)
      end
      else begin
        (* delayed read (Fig 4.3): keep FUNC_ID static, drop the strobe *)
        if Obs.active t.obs then Metrics.incr t.m_wait_states;
        Signal.set_next_bool t.sis.Sis_if.io_enable false;
        Sleep.sleep t.sleep
      end
  | RGap (d, remaining) ->
      (* gap cycles between read words; re-strobe when done *)
      if Obs.active t.obs then Metrics.incr t.m_overhead;
      if Sleep.now t.sleep >= d then begin
        strobe_read t;
        t.phase <-
          (if t.cfg.strictly_sync then SyncSample remaining else ReadPending remaining)
      end
  | SyncSample remaining ->
      (* strictly synchronous: sample this very cycle, ready or not (§4.2.2) *)
      if Obs.active t.obs then Metrics.incr t.m_words_read;
      collect t (Signal.get t.sis.Sis_if.data_out);
      Signal.set_next_bool t.sis.Sis_if.io_enable false;
      next_read_word t (remaining - 1)
  | StatusSample ->
      let v = Signal.get t.sis.Sis_if.calc_done in
      if Obs.active t.obs then Metrics.incr t.m_words_read;
      collect t (Bits.resize v (Signal.width t.sis.Sis_if.data_in));
      t.irq_flag <- false (* reading the status register acks the IRQ *);
      end_transaction t
  | Teardown d ->
      if Obs.active t.obs then Metrics.incr t.m_overhead;
      if Sleep.now t.sleep >= d then go_idle t

let seq t () =
  step t;
  if Sleep.honoured t.sleep then nap t

let make ?(obs = Obs.none) ?cover cfg sis =
  let m = Obs.metrics obs in
  let metric name = Metrics.counter m ("bus/" ^ cfg.name ^ "/" ^ name) in
  let rec_ = Obs.recorder obs in
  let rec_track =
    match rec_ with
    | Some r -> Recorder.intern r ("bus/" ^ cfg.name)
    | None -> -1
  in
  let sleep =
    Sleep.create
      ~wake_on:
        [
          sis.Sis_if.rst; sis.Sis_if.calc_done; sis.Sis_if.io_done;
          sis.Sis_if.data_out_valid;
        ]
      ()
  in
  let t =
    {
      cfg;
      sis;
      phase = Idle;
      req = None;
      active = None;
      collected = [];
      busy_flag = false;
      reset_req = false;
      gap_w = cfg.write_word_gap;
      gap_r = cfg.read_word_gap;
      prev_calc = None;
      irq_flag = false;
      comp = Component.make "engine";
      sleep;
      waiters = [];
      obs;
      m_transfers = metric "transfers";
      m_words_written = metric "words_written";
      m_words_read = metric "words_read";
      m_wait_states = metric "wait_states";
      m_overhead = metric "overhead_cycles";
      h_burst =
        Metrics.histogram ~limits:[| 1; 2; 4; 8; 16; 32; 64 |] m
          ("bus/" ^ cfg.name ^ "/burst_words");
      rec_;
      rec_track;
      cover_txn =
        Option.bind cover (fun c ->
            Splice_cover.Bus_cover.find_txn c ~bus:cfg.name);
    }
  in
  t.comp <-
    Component.make ~seq:(seq t) ~sleep
      ~reset:(fun () ->
        t.phase <- Idle;
        t.req <- None;
        t.active <- None;
        t.collected <- [];
        t.busy_flag <- false;
        t.reset_req <- false;
        t.gap_w <- cfg.write_word_gap;
        t.gap_r <- cfg.read_word_gap;
        t.prev_calc <- None;
        t.irq_flag <- false)
      ("adapter:" ^ cfg.name);
  t

let component t = t.comp
let busy t = t.busy_flag
let config t = t.cfg
let irq_pending t = t.irq_flag

let port t ~wait_mode ~max_burst_words ~supports_dma =
  {
    Bus_port.bus_name = t.cfg.name;
    submit =
      (fun req ->
        if t.busy_flag then
          failwith
            (Printf.sprintf "bus %s: submit while busy (%s)" t.cfg.name
               (Format.asprintf "%a" Bus_port.pp_req req));
        t.busy_flag <- true;
        t.req <- Some req;
        Sleep.wake t.sleep);
    busy = (fun () -> t.busy_flag);
    result = (fun () -> List.rev t.collected);
    pulse_reset =
      (fun () ->
        t.reset_req <- true;
        Sleep.wake t.sleep);
    irq_pending = (fun () -> t.irq_flag);
    watch = (fun s -> t.waiters <- s :: t.waiters);
    wait_mode;
    max_burst_words;
    supports_dma;
  }
