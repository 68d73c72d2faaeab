(* Trace query engine over flight-recorder dumps: parse the versioned
   JSON back into typed events and metric snapshots, filter by
   subject/kind/cycle-range, reconstruct per-transaction latencies into
   log-bucketed percentile rows, collapse per-component eval self-time
   into flamegraph stacks, and re-expose the embedded metrics snapshot
   as OpenMetrics text. Everything here is post-mortem tooling — nothing
   is on a simulation hot path. *)

type event = {
  ev_cycle : int;
  ev_kind : Recorder.kind;
  ev_subject : string;
  ev_value : int;
  ev_message : string option;  (* Check_fail only *)
}

type hist = {
  q_name : string;
  q_limits : int array;
  q_buckets : int array;  (* length limits + 1; last is overflow *)
  q_sum : int;
  q_count : int;
  q_min : int;
  q_max : int;
}

type dump = {
  d_ring : int;
  d_total : int;
  d_dropped : int;
  d_now : int;
  d_context : string option;
  d_events : event list;
  d_counters : (string * int) list;
  d_gauges : (string * int) list;
  d_histograms : hist list;
}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let parse_event j =
  let* c = Json.int_field "c" j in
  let* tag = Json.str_field "k" j in
  let* s = Json.str_field "s" j in
  match Recorder.kind_of_tag tag with
  | None -> Error (Printf.sprintf "unknown event kind %S" tag)
  | Some kind ->
      let v =
        Option.value ~default:0 (Option.bind (Json.member "v" j) Json.to_int)
      in
      Ok
        {
          ev_cycle = c;
          ev_kind = kind;
          ev_subject = s;
          ev_value = v;
          ev_message = Option.bind (Json.member "m" j) Json.to_str;
        }

let parse_int_list j =
  match Json.to_list j with
  | None -> Error "expected an array of integers"
  | Some l ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: rest -> (
            match Json.to_int x with
            | Some v -> go (v :: acc) rest
            | None -> Error "expected an array of integers")
      in
      go [] l

let parse_hist j =
  let* name = Json.str_field "name" j in
  let* limits =
    match Json.member "limits" j with
    | Some l -> parse_int_list l
    | None -> Error "histogram without limits"
  in
  let* buckets =
    match Json.member "buckets" j with
    | Some l -> parse_int_list l
    | None -> Error "histogram without buckets"
  in
  let* count = Json.int_field "count" j in
  let* sum = Json.int_field "sum" j in
  let* vmin = Json.int_field ~default:0 "min" j in
  let* vmax = Json.int_field ~default:0 "max" j in
  Ok
    {
      q_name = name;
      q_limits = limits;
      q_buckets = buckets;
      q_sum = sum;
      q_count = count;
      q_min = vmin;
      q_max = vmax;
    }

let parse_pairs j =
  match j with
  | Json.Obj fields ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, v) :: rest -> (
            match Json.to_int v with
            | Some n -> go ((name, n) :: acc) rest
            | None -> Error (Printf.sprintf "non-integer metric %S" name))
      in
      go [] fields
  | _ -> Error "expected a metrics object"

let of_json j =
  let* version = Json.int_field "splice_dump" j in
  if version <> 2 then
    Error (Printf.sprintf "unsupported dump version %d" version)
  else
    let* ring = Json.int_field "ring" j in
    let* total = Json.int_field "total" j in
    let* dropped = Json.int_field ~default:(max 0 (total - ring)) "dropped" j in
    let* now = Json.int_field "now" j in
    let* events =
      match Option.bind (Json.member "events" j) Json.to_list with
      | Some l -> Json.map_result parse_event l
      | None -> Error "missing events array"
    in
    let metrics = Json.member "metrics" j in
    let* counters =
      match Option.bind metrics (Json.member "counters") with
      | Some c -> parse_pairs c
      | None -> Ok []
    in
    let* gauges =
      match Option.bind metrics (Json.member "gauges") with
      | Some g -> parse_pairs g
      | None -> Ok []
    in
    let* histograms =
      match Option.bind (Option.bind metrics (Json.member "histograms")) Json.to_list with
      | Some l -> Json.map_result parse_hist l
      | None -> Ok []
    in
    Ok
      {
        d_ring = ring;
        d_total = total;
        d_dropped = dropped;
        d_now = now;
        d_context = Option.bind (Json.member "context" j) Json.to_str;
        d_events = events;
        d_counters = counters;
        d_gauges = gauges;
        d_histograms = histograms;
      }

let of_recorder r =
  match of_json (Recorder.dump r) with
  | Ok d -> d
  | Error e -> invalid_arg ("Query.of_recorder: " ^ e)

let of_string s =
  match Json.of_string s with
  | Error e -> Error (Printf.sprintf "dump is not valid JSON: %s" e)
  | Ok j -> of_json j

let load path =
  (* every filesystem failure mode — missing file, permissions, a read
     racing a truncation — must surface as [Error], never an exception:
     the CLI turns it into a one-line diagnostic and a non-zero exit *)
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (path ^ ": truncated file")
  | s -> of_string s

(* ------------------------------------------------------------------ *)
(* Filtering                                                           *)
(* ------------------------------------------------------------------ *)

let filter ?subject ?kinds ?from_cycle ?to_cycle d =
  List.filter
    (fun e ->
      (match subject with Some s -> e.ev_subject = s | None -> true)
      && (match kinds with Some ks -> List.mem e.ev_kind ks | None -> true)
      && (match from_cycle with Some c -> e.ev_cycle >= c | None -> true)
      && match to_cycle with Some c -> e.ev_cycle <= c | None -> true)
    d.d_events

let last n events =
  let len = List.length events in
  if len <= n then events else List.filteri (fun i _ -> i >= len - n) events

let subjects ?kinds d =
  List.sort_uniq compare
    (List.map (fun e -> e.ev_subject) (filter ?kinds d))

(* ------------------------------------------------------------------ *)
(* Per-transaction latency percentiles                                 *)
(* ------------------------------------------------------------------ *)

(* Log-bucketed to 2^16 cycles: bus transactions under fuzz traffic span
   single-cycle register pokes to multi-thousand-cycle DMA bursts. *)
let latency_limits = Array.init 17 (fun i -> 1 lsl i)

type latency_row = {
  lr_track : string;
  lr_count : int;
  lr_p50 : int;
  lr_p95 : int;
  lr_p99 : int;
  lr_max : int;
}

(* Pair each Txn_begin with the next Txn_end of the same track (adapters
   execute one transaction at a time, §4.2.1, and SIS words and driver
   calls are serial too); a begin or end whose mate fell off the ring
   window is dropped rather than guessed at. The one pairing rule: the
   latency table and the Chrome-trace export both read it. *)
let transactions d =
  let open_txns = Hashtbl.create 8 in
  let acc = ref [] in
  List.iter
    (fun e ->
      match e.ev_kind with
      | Recorder.Txn_begin -> Hashtbl.replace open_txns e.ev_subject e
      | Recorder.Txn_end -> (
          match Hashtbl.find_opt open_txns e.ev_subject with
          | Some began ->
              Hashtbl.remove open_txns e.ev_subject;
              acc := (began, max 0 (e.ev_cycle - began.ev_cycle)) :: !acc
          | None -> ())
      | _ -> ())
    d.d_events;
  List.rev !acc

let latency_samples d =
  List.map (fun (b, dur) -> (b.ev_subject, dur)) (transactions d)

let latency_rows d =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (track, sample) ->
      let buckets, stats =
        match Hashtbl.find_opt tbl track with
        | Some v -> v
        | None ->
            let v = (Array.make (Array.length latency_limits + 1) 0, ref (0, 0)) in
            Hashtbl.add tbl track v;
            v
      in
      let nl = Array.length latency_limits in
      let rec bucket i =
        if i >= nl || sample <= latency_limits.(i) then i else bucket (i + 1)
      in
      buckets.(bucket 0) <- buckets.(bucket 0) + 1;
      let n, vmax = !stats in
      stats := (n + 1, max vmax sample))
    (latency_samples d);
  Hashtbl.fold
    (fun track (buckets, stats) rows ->
      let n, vmax = !stats in
      let p q =
        Metrics.percentile_of ~limits:latency_limits ~buckets ~n ~vmax q
      in
      {
        lr_track = track;
        lr_count = n;
        lr_p50 = p 0.50;
        lr_p95 = p 0.95;
        lr_p99 = p 0.99;
        lr_max = vmax;
      }
      :: rows)
    tbl []
  |> List.sort (fun a b -> compare a.lr_track b.lr_track)

(* ------------------------------------------------------------------ *)
(* Flamegraph (collapsed-stack) of per-component eval self-time        *)
(* ------------------------------------------------------------------ *)

(* One stack per component, rooted at "kernel", slash-separated name
   segments becoming frames; the weight is the component's comb
   evaluations inside the window — the event scheduler's unit of work.
   Feed to inferno/flamegraph.pl or speedscope as-is. *)
let flamegraph d =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.ev_kind with
      | Recorder.Comp_eval ->
          let stack =
            "kernel;"
            ^ String.concat ";" (String.split_on_char '/' e.ev_subject)
          in
          Hashtbl.replace tbl stack
            (e.ev_value + Option.value ~default:0 (Hashtbl.find_opt tbl stack))
      | _ -> ())
    d.d_events;
  let lines =
    Hashtbl.fold (fun stack n acc -> Printf.sprintf "%s %d" stack n :: acc) tbl []
  in
  String.concat "\n" (List.sort compare lines) ^ "\n"

(* ------------------------------------------------------------------ *)
(* OpenMetrics re-exposition of the embedded snapshot                  *)
(* ------------------------------------------------------------------ *)

let openmetrics d =
  Openmetrics.render ~counters:d.d_counters ~gauges:d.d_gauges
    ~histograms:
      (List.map
         (fun h ->
           ( h.q_name,
             {
               Openmetrics.om_limits = h.q_limits;
               om_buckets = h.q_buckets;
               om_sum = h.q_sum;
               om_count = h.q_count;
             } ))
         d.d_histograms)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_event fmt e =
  match e.ev_kind with
  | Recorder.Signal_change ->
      Format.fprintf fmt "%8d  sig   %-28s -> %d" e.ev_cycle e.ev_subject
        e.ev_value
  | Recorder.Txn_begin ->
      Format.fprintf fmt "%8d  txn+  %-28s %d word(s)" e.ev_cycle e.ev_subject
        e.ev_value
  | Recorder.Txn_end -> Format.fprintf fmt "%8d  txn-  %s" e.ev_cycle e.ev_subject
  | Recorder.Check_fail ->
      Format.fprintf fmt "%8d  FAIL  %-28s %s" e.ev_cycle e.ev_subject
        (Option.value ~default:"" e.ev_message)
  | Recorder.Sched_pass ->
      Format.fprintf fmt "%8d  pass  %-28s %d delta pass(es)" e.ev_cycle
        e.ev_subject e.ev_value
  | Recorder.Comp_eval ->
      Format.fprintf fmt "%8d  eval  %s" e.ev_cycle e.ev_subject

let summary d =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       "flight recorder dump: %d event(s) retained (ring %d, %d recorded, %d \
        dropped), last cycle %d\n"
       (List.length d.d_events) d.d_ring d.d_total d.d_dropped d.d_now);
  (match d.d_context with
  | Some c -> Buffer.add_string b (Printf.sprintf "context: %s\n" c)
  | None -> ());
  let rows = latency_rows d in
  if rows <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "\n%-24s %8s %8s %8s %8s %8s\n" "transaction latencies"
         "n" "p50" "p95" "p99" "max");
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "%-24s %8d %8d %8d %8d %8d\n" r.lr_track r.lr_count
             r.lr_p50 r.lr_p95 r.lr_p99 r.lr_max))
      rows
  end;
  Buffer.contents b
