(* Flight recorder: a fixed-size ring of packed events, recorded on every
   cycle of a kernel whose observability context carries one, and dumped
   post mortem when a check fails. Runs nobody reads (fuzz sweeps, the
   Fig 9.2 grid) are built on [Obs.none] and record nothing; a fuzz
   failure's dump comes from an instrumented re-run of the failing cell.
   The hot path is two unchecked stores into two adjacent words of one
   ring chunk — no formatting, and the ring wrap is branch-free (the slot
   index is [total land mask]) — so recording does not perturb what it
   observes. The ring is split into fixed-size chunks allocated on their
   first write: a short run (a fuzz re-run) pays for the events it
   records, not for the whole window.

   Subjects (signal, component, check and transaction-track names) are
   interned once into a small string table; hot call sites cache the id
   next to the subject itself, keyed by the recorder's unique [stamp], so a
   recorded event never touches a hash table. *)

type kind =
  | Signal_change  (* subject = signal, arg = new value (low 63 bits) *)
  | Txn_begin
      (* subject = track: "bus/<name>" (arg = words requested),
         "sis/write" / "sis/read" (FUNC_ID), "driver/<func>" (op count) *)
  | Txn_end  (* subject = the same track, arg = 0 *)
  | Check_fail  (* subject = check name, arg = interned message id *)
  | Sched_pass  (* subject = "kernel", arg = delta passes this cycle *)
  | Comp_eval  (* subject = component, arg = 1 *)

let[@inline] kind_code = function
  | Signal_change -> 0
  | Txn_begin -> 1
  | Txn_end -> 2
  | Check_fail -> 3
  | Sched_pass -> 4
  | Comp_eval -> 5

let kind_of_code = function
  | 0 -> Signal_change
  | 1 -> Txn_begin
  | 2 -> Txn_end
  | 3 -> Check_fail
  | 4 -> Sched_pass
  | 5 -> Comp_eval
  | n -> invalid_arg (Printf.sprintf "Recorder.kind_of_code: %d" n)

let kind_tag = function
  | Signal_change -> "sig"
  | Txn_begin -> "tb"
  | Txn_end -> "te"
  | Check_fail -> "fail"
  | Sched_pass -> "pass"
  | Comp_eval -> "eval"

let kind_of_tag = function
  | "sig" -> Some Signal_change
  | "tb" -> Some Txn_begin
  | "te" -> Some Txn_end
  | "fail" -> Some Check_fail
  | "pass" -> Some Sched_pass
  | "eval" -> Some Comp_eval
  | _ -> None

(* Event encoding: two adjacent words per event in one interleaved array,
   so a recorded event is a single (usually cache-resident) line:

     word 0:  cycle (low 40 bits) << 23 | subject id (20 bits) << 3 | kind
     word 1:  arg (full 63-bit value for signal changes)

   Cycle counts wrap at 2^40 (a ~17-minute simulation at 1 GHz) and intern
   tables never approach 2^20 subjects, so the packing is lossless in
   practice; both fields are masked on the way in regardless. *)

let subject_mask = 0xFFFFF
let meta_bits = 23 (* kind (3) + subject (20) *)

type t = {
  stamp : int;  (* process-unique identity for intern-id caches *)
  capacity : int;  (* always a power of two *)
  mask : int;  (* capacity - 1: slot of event [n] is [n land mask] *)
  chunk_shift : int;  (* slot [i] lives in chunk [i lsr chunk_shift] ... *)
  chunk_mask : int;  (* ... at event offset [i land chunk_mask] *)
  chunks : int array array;
      (* 2 words per event (packed word + arg, interleaved); [||] until the
         chunk's first write *)
  mutable total : int;  (* events ever recorded (dropped = total - kept) *)
  mutable r_now : int;  (* simulation cycle, maintained by the kernel *)
  (* intern table: cold path only *)
  tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n_names : int;
}

let default_capacity = 8192

(* events per chunk (8 KB of words); smaller rings are one chunk *)
let chunk_events = 512

(* recorders are created across pool domains; the stamp source must not
   hand two recorders the same cache key *)
let next_stamp = Atomic.make 1

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)
let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  let capacity = pow2_above capacity 1 in
  let per_chunk = min capacity chunk_events in
  {
    stamp = Atomic.fetch_and_add next_stamp 1;
    capacity;
    mask = capacity - 1;
    chunk_shift = log2 per_chunk;
    chunk_mask = per_chunk - 1;
    chunks = Array.make (capacity / per_chunk) [||];
    total = 0;
    r_now = 0;
    tbl = Hashtbl.create 64;
    names = Array.make 64 "";
    n_names = 0;
  }

let stamp t = t.stamp
let capacity t = t.capacity
let total t = t.total
let set_now t cycle = t.r_now <- cycle

let intern t name =
  match Hashtbl.find_opt t.tbl name with
  | Some id -> id
  | None ->
      let id = t.n_names in
      if id = Array.length t.names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.names 0 bigger 0 id;
        t.names <- bigger
      end;
      t.names.(id) <- name;
      t.n_names <- id + 1;
      Hashtbl.add t.tbl name id;
      id

let subject_name t id =
  if id < 0 || id >= t.n_names then Printf.sprintf "?%d" id else t.names.(id)

let[@inline never] alloc_chunk t k =
  let c = Array.make (2 * (t.chunk_mask + 1)) 0 in
  t.chunks.(k) <- c;
  c

(* The unsafe accesses are bounded by construction: [slot lsr chunk_shift]
   indexes the capacity/chunk-sized table, and [2 * (slot land
   chunk_mask)] is inside a chunk of 2 words per event. *)
let[@inline] record t kind ~subject ~arg =
  let slot = t.total land t.mask in
  let k = slot lsr t.chunk_shift in
  let c = Array.unsafe_get t.chunks k in
  let c = if Array.length c = 0 then alloc_chunk t k else c in
  let i = 2 * (slot land t.chunk_mask) in
  Array.unsafe_set c i
    ((t.r_now lsl meta_bits)
    lor ((subject land subject_mask) lsl 3)
    lor kind_code kind);
  Array.unsafe_set c (i + 1) arg;
  t.total <- t.total + 1

let[@inline] signal_change t ~subject ~value =
  record t Signal_change ~subject ~arg:value

let[@inline] txn_begin t ~subject ~words = record t Txn_begin ~subject ~arg:words
let[@inline] txn_end t ~subject = record t Txn_end ~subject ~arg:0

let check_fail t ~subject ~message =
  record t Check_fail ~subject ~arg:(intern t message)

let[@inline] sched_pass t ~subject ~iters =
  record t Sched_pass ~subject ~arg:iters

let[@inline] comp_eval t ~subject = record t Comp_eval ~subject ~arg:1

type event = { e_cycle : int; e_kind : kind; e_subject : string; e_arg : int }

let kept t = if t.total < t.capacity then t.total else t.capacity

(* oldest -> newest: once wrapped, the oldest retained event is number
   [total - capacity], whose slot is that number [land mask] *)
let iter_slots t f =
  let kept = kept t in
  let start = if t.total <= t.capacity then 0 else t.total land t.mask in
  for k = 0 to kept - 1 do
    let i = (start + k) land t.mask in
    f i
  done

let events t =
  let acc = ref [] in
  iter_slots t (fun slot ->
      let c = t.chunks.(slot lsr t.chunk_shift) in
      let i = 2 * (slot land t.chunk_mask) in
      let w = c.(i) in
      acc :=
        {
          e_cycle = w lsr meta_bits;
          e_kind = kind_of_code (w land 7);
          e_subject = subject_name t ((w lsr 3) land subject_mask);
          e_arg = c.(i + 1);
        }
        :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Dump format (versioned JSON, parsed back by Query)                  *)
(* ------------------------------------------------------------------ *)

let metrics_json m =
  let counters =
    List.map
      (fun c -> (Metrics.counter_name c, Json.Int (Metrics.count c)))
      (Metrics.counters m)
  in
  let gauges =
    List.map
      (fun g -> (Metrics.gauge_name g, Json.Int (Metrics.level g)))
      (Metrics.gauges m)
  in
  let histograms =
    List.map
      (fun h ->
        let limits, buckets =
          List.partition_map
            (fun (limit, count) ->
              match limit with
              | Some l -> Left (l, count)
              | None -> Right count)
            (Metrics.bucket_counts h)
        in
        let overflow = match buckets with [ c ] -> c | _ -> 0 in
        Json.Obj
          [
            ("name", Json.String (Metrics.histogram_name h));
            ("limits", Json.List (List.map (fun (l, _) -> Json.Int l) limits));
            ( "buckets",
              Json.List
                (List.map (fun (_, c) -> Json.Int c) limits
                @ [ Json.Int overflow ]) );
            ("count", Json.Int (Metrics.observations h));
            ("sum", Json.Int (Metrics.total h));
            ("min", Json.Int (Metrics.min_value h));
            ("max", Json.Int (Metrics.max_value h));
          ])
      (Metrics.histograms m)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.List histograms);
    ]

let dump ?context ?metrics t =
  let events =
    List.map
      (fun e ->
        let base =
          [
            ("c", Json.Int e.e_cycle);
            ("k", Json.String (kind_tag e.e_kind));
            ("s", Json.String e.e_subject);
          ]
        in
        let arg =
          match e.e_kind with
          | Check_fail -> [ ("m", Json.String (subject_name t e.e_arg)) ]
          | Signal_change -> [ ("v", Json.Int e.e_arg) ]
          | Txn_begin | Sched_pass | Comp_eval | Txn_end ->
              if e.e_arg = 0 then [] else [ ("v", Json.Int e.e_arg) ]
        in
        Json.Obj (base @ arg))
      (events t)
  in
  Json.Obj
    ([
       ("splice_dump", Json.Int 2);
       ("ring", Json.Int t.capacity);
       ("total", Json.Int t.total);
       ("dropped", Json.Int (t.total - kept t));
       ("now", Json.Int t.r_now);
     ]
    @ (match context with
      | Some c -> [ ("context", Json.String c) ]
      | None -> [])
    @ (match metrics with
      | Some m -> [ ("metrics", metrics_json m) ]
      | None -> [])
    @ [ ("events", Json.List events) ])

let dump_string ?context ?metrics t = Json.to_string (dump ?context ?metrics t)
