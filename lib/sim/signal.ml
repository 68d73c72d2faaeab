open Splice_bits
open Splice_obs

type t = {
  name : string;
  uid : int;
      (* domain-unique id, never reused and never reset (unlike the default
         [sigN] name counter) — the compiled tape keys its slot table on it *)
  width : int;
  narrow : bool;
      (* [width <= 62]: every normalized value of at most 62 bits is a
         non-negative OCaml int, so a narrow signal keeps its value as the
         immediate [imm], [get_int] never fails on it, and an int compare
         decides whether a write changes anything. 63- and 64-bit signals
         are wide: their value lives only in [value]. *)
  mutable imm : int;
      (* the value of a narrow signal (0 for a wide one); always equal to
         [value] as an int — reads and change detection use only this *)
  mutable value : Bits.t;
      (* the value as a [Bits.t]; for a narrow signal rebuilt only when
         [imm] actually changes, so [get] never allocates *)
  mutable listeners : (unit -> unit) list;
      (* fan-out: fired (in registration order is irrelevant — they only mark
         components dirty) whenever the value actually changes *)
  mutable commit_stamp : int;
      (* generation stamp of the last [commit_pending] epoch that wrote this
         signal; gives O(1) last-write-wins during the commit scan *)
  mutable rec_stamp : int;
  mutable rec_id : int;
      (* cached flight-recorder intern id, valid while rec_stamp matches the
         attached recorder's stamp — a recorded transition never hashes *)
  mutable tape_stamp : int;
  mutable tape_slot : int;
      (* cached compiled-tape slot (same idiom): valid while tape_stamp
         matches the settling tape's stamp, so the tape's touch hook never
         hashes in the steady state *)
  mutable owner : int;
      (* id of the kernel whose design this signal belongs to (0 = none);
         stamped by the host at build time so pending-write cleanup after
         an aborted call can be scoped to the retiring kernel instead of
         dropping every queued write in the domain *)
}

(* The deferred-write queue: parallel arrays in write order (oldest first),
   grown by doubling and otherwise reused, so [set_next] stores a signal
   and an int (plus a [Bits.t] the caller already built) without
   allocating. [q_bits] holds [no_bits] when the write came in as an int. *)
type queue = {
  mutable q_sigs : t array;
  mutable q_imms : int array;
  mutable q_bits : Bits.t array;
  mutable q_len : int;
}

let no_bits = Bits.create ~width:1 0L

let dummy =
  {
    name = "";
    uid = 0;
    width = 1;
    narrow = true;
    imm = 0;
    value = no_bits;
    listeners = [];
    commit_stamp = 0;
    rec_stamp = 0;
    rec_id = -1;
    tape_stamp = 0;
    tape_slot = -1;
    owner = 0;
  }

let queue () =
  {
    q_sigs = Array.make 16 dummy;
    q_imms = Array.make 16 0;
    q_bits = Array.make 16 no_bits;
    q_len = 0;
  }

(* The signal store (change counter, deferred-write queue, name counter,
   commit epoch) used to be module-global refs. Parallel grids run one
   kernel per pool task, so the store is domain-local: every task sees its
   own queue and fixpoint counter, and concurrent kernels in different
   domains never race. Within one domain the old single-kernel-at-a-time
   discipline still applies. *)
type store = {
  mutable changes : int;
  mutable s_pending : queue;
  mutable s_spare : queue;
      (* [commit_pending] swaps the two queues to detach the pending writes
         before applying them *)
  mutable counter : int;
  mutable uid_counter : int;
      (* unlike [counter] this one is never reset: uids stay unique for the
         lifetime of the domain, even across [reset_names] *)
  mutable commit_epoch : int;
  mutable s_recorder : Recorder.t option;
      (* the cycling kernel's flight recorder (re-attached every cycle);
         every actual value change in this domain is recorded into it *)
  mutable s_touch : (t -> unit) option;
      (* the settling compiled tape's write hook (installed only for the
         duration of a settle): fired on every actual value change so the
         tape can mark reader components dirty without per-signal listeners *)
  mutable s_created : t list option;
      (* when [Some], [create] conses every new signal here (newest first) —
         the host's build-time recording window (see [record_created]) *)
}

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        changes = 0;
        s_pending = queue ();
        s_spare = queue ();
        counter = 0;
        uid_counter = 0;
        commit_epoch = 0;
        s_recorder = None;
        s_touch = None;
        s_created = None;
      })

let store () = Domain.DLS.get store_key

let create ?name width =
  let st = store () in
  st.counter <- st.counter + 1;
  st.uid_counter <- st.uid_counter + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "sig%d" st.counter
  in
  let s =
    {
      name;
      uid = st.uid_counter;
      width;
      narrow = width <= 62;
      imm = 0;
      value = Bits.zero width;
      listeners = [];
      commit_stamp = 0;
      rec_stamp = 0;
      rec_id = -1;
      tape_stamp = 0;
      tape_slot = -1;
      owner = 0;
    }
  in
  (match st.s_created with
  | None -> ()
  | Some acc -> st.s_created <- Some (s :: acc));
  s

let name t = t.name
let uid t = t.uid
let width t = t.width
let narrow t = t.narrow
(* the readers every model and monitor calls several times per tick:
   inlined at the call site, so a narrow read is a field load and a test *)
let[@inline] get t = t.value
let[@inline] get_bool t = if t.narrow then t.imm <> 0 else Bits.to_bool t.value
let[@inline] get_int t = if t.narrow then t.imm else Bits.to_int t.value

let on_change t f = t.listeners <- f :: t.listeners

let attach_recorder r = (store ()).s_recorder <- r
let set_touch h = (store ()).s_touch <- h
let tape_stamp t = t.tape_stamp
let tape_slot t = t.tape_slot

let cache_tape_slot t ~stamp ~slot =
  t.tape_stamp <- stamp;
  t.tape_slot <- slot

(* cold only on the first transition per (signal, recorder) pair *)
let record_change r t =
  let id =
    if t.rec_stamp = Recorder.stamp r then t.rec_id
    else begin
      let id = Recorder.intern r t.name in
      t.rec_stamp <- Recorder.stamp r;
      t.rec_id <- id;
      id
    end
  in
  (* low 63 bits: only full 64-bit signals truncate, and only in the dump *)
  let value =
    if t.narrow then t.imm else Int64.to_int (Bits.to_int64 t.value)
  in
  Recorder.signal_change r ~subject:id ~value

(* the bookkeeping of an actual change, after the new value is stored *)
let changed t =
  let st = store () in
  st.changes <- st.changes + 1;
  (match st.s_recorder with None -> () | Some r -> record_change r t);
  (match st.s_touch with None -> () | Some h -> h t);
  match t.listeners with
  | [] -> ()
  | ls -> List.iter (fun f -> f ()) ls

let width_mismatch what t v =
  raise
    (Bits.Width_mismatch
       (Printf.sprintf "Signal.%s %s: %d vs %d" what t.name (Bits.width v)
          t.width))

(* an int masked to a narrow signal's width, as [Bits.of_int] would *)
let mask_imm t v = v land ((1 lsl t.width) - 1)

(* [i] is already masked to the (narrow) width *)
let set_imm t i =
  if i <> t.imm then begin
    t.imm <- i;
    t.value <- Bits.of_int ~width:t.width i;
    changed t
  end

(* [v] has the signal's width *)
let store_bits t v =
  if t.narrow then begin
    let i = Int64.to_int (Bits.to_int64 v) in
    if i <> t.imm then begin
      t.imm <- i;
      t.value <- v;
      changed t
    end
  end
  else if not (Bits.equal t.value v) then begin
    t.value <- v;
    changed t
  end

let set t v =
  if Bits.width v <> t.width then width_mismatch "set" t v;
  store_bits t v

let set_bool t b =
  if t.width <> 1 then
    raise (Bits.Width_mismatch (Printf.sprintf "Signal.set_bool %s" t.name));
  let i = Bool.to_int b in
  if i <> t.imm then begin
    t.imm <- i;
    t.value <- Bits.of_bool b;
    changed t
  end

let set_int t v =
  if t.narrow then set_imm t (mask_imm t v)
  else store_bits t (Bits.of_int ~width:t.width v)

let push t i b =
  let q = (store ()).s_pending in
  let n = q.q_len in
  if n = Array.length q.q_sigs then begin
    let grow a fill =
      let a' = Array.make (2 * n) fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    q.q_sigs <- grow q.q_sigs dummy;
    q.q_imms <- grow q.q_imms 0;
    q.q_bits <- grow q.q_bits no_bits
  end;
  Array.unsafe_set q.q_sigs n t;
  Array.unsafe_set q.q_imms n i;
  Array.unsafe_set q.q_bits n b;
  q.q_len <- n + 1

let set_next t v =
  if Bits.width v <> t.width then width_mismatch "set_next" t v;
  push t 0 v

let set_next_bool t b =
  if t.width <> 1 then width_mismatch "set_next" t (Bits.of_bool b);
  push t (Bool.to_int b) no_bits

let set_next_int t v =
  if t.narrow then push t (mask_imm t v) no_bits
  else push t 0 (Bits.of_int ~width:t.width v)

let change_count () = (store ()).changes

let commit_pending () =
  (* Last write wins: the queue is scanned newest-first, so the first write
     stamped with the current epoch shadows any older queued writes to the
     same signal — a single O(n) scan, no membership lists.

     The queue is detached {e before} the scan (swapped with the empty
     spare): if an apply raises (a listener failing), the live queue is
     already empty and the next cycle cannot silently replay the stale
     writes. Epoch stamps need no restoring — the next commit bumps the
     epoch, so half-applied stamps are never mistaken for current ones. *)
  let st = store () in
  let q = st.s_pending in
  if q.q_len > 0 then begin
    st.s_pending <- st.s_spare;
    st.s_spare <- q;
    st.s_pending.q_len <- 0;
    st.commit_epoch <- st.commit_epoch + 1;
    let epoch = st.commit_epoch in
    for k = q.q_len - 1 downto 0 do
      let s = Array.unsafe_get q.q_sigs k in
      if s.commit_stamp <> epoch then begin
        s.commit_stamp <- epoch;
        let b = Array.unsafe_get q.q_bits k in
        if b == no_bits then set_imm s (Array.unsafe_get q.q_imms k)
        else store_bits s b
      end
    done
  end

let clear_pending () = (store ()).s_pending.q_len <- 0

let clear_pending_for ~owner =
  (* in-place compaction, keeping the surviving writes in order *)
  let q = (store ()).s_pending in
  let kept = ref 0 in
  for k = 0 to q.q_len - 1 do
    let s = q.q_sigs.(k) in
    if s.owner <> owner then begin
      q.q_sigs.(!kept) <- s;
      q.q_imms.(!kept) <- q.q_imms.(k);
      q.q_bits.(!kept) <- q.q_bits.(k);
      incr kept
    end
  done;
  q.q_len <- !kept

let reset_names () = (store ()).counter <- 0

let set_owner t ~owner = t.owner <- owner
let owner t = t.owner

let record_created f =
  (* nest-safe: an inner window (a monitor adoption inside a build) sees
     only its own creations, and the outer window keeps accumulating *)
  let st = store () in
  let saved = st.s_created in
  st.s_created <- Some [];
  match f () with
  | v ->
      let created =
        match st.s_created with Some l -> l | None -> assert false
      in
      (match (saved, created) with
      | Some outer, l -> st.s_created <- Some (List.rev_append (List.rev l) outer)
      | None, _ -> st.s_created <- None);
      (v, Array.of_list (List.rev created))
  | exception e ->
      st.s_created <- saved;
      raise e

let restore_value t v =
  (* cache-replay restore: bring the signal back to a snapshotted value
     without firing listeners, the recorder, or the change counter — the
     kernel is reset around this, so nothing is watching *)
  if Bits.width v <> t.width then width_mismatch "restore_value" t v;
  if t.narrow then t.imm <- Int64.to_int (Bits.to_int64 v);
  t.value <- v
