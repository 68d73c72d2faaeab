(** Trace query engine over flight-recorder dumps (the [splice trace]
    back end): parse a dump back into typed events and metric snapshots,
    filter by subject / kind / cycle range, reconstruct per-transaction
    latency percentiles, collapse per-component eval self-time into
    flamegraph stacks, and re-expose the embedded metrics snapshot as
    OpenMetrics text. Post-mortem tooling only — nothing here runs on a
    simulation hot path. *)

type event = {
  ev_cycle : int;
  ev_kind : Recorder.kind;
  ev_subject : string;
  ev_value : int;
      (** signal value / words requested / delta passes, 0 otherwise *)
  ev_message : string option;  (** [Check_fail] events only *)
}

type hist = {
  q_name : string;
  q_limits : int array;
  q_buckets : int array;  (** length [limits + 1]; last is overflow *)
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
  d_events : event list;  (** oldest first *)
  d_counters : (string * int) list;
  d_gauges : (string * int) list;
  d_histograms : hist list;
}

val of_string : string -> (dump, string) result
(** Parse a [Recorder.dump_string] artifact. *)

val load : string -> (dump, string) result
(** Read and parse a dump file. *)

val of_recorder : Recorder.t -> dump
(** A live recorder's window, read exactly as its dump file would be. *)

val filter :
  ?subject:string ->
  ?kinds:Recorder.kind list ->
  ?from_cycle:int ->
  ?to_cycle:int ->
  dump ->
  event list
(** Conjunction of the given predicates, order preserved. *)

val last : int -> event list -> event list
(** The trailing [n] events. *)

val subjects : ?kinds:Recorder.kind list -> dump -> string list
(** Distinct subjects (optionally of the given kinds), sorted. *)

type latency_row = {
  lr_track : string;
  lr_count : int;
  lr_p50 : int;
  lr_p95 : int;
  lr_p99 : int;
  lr_max : int;
}

val transactions : dump -> (event * int) list
(** Completed transactions in window (end) order, as the [Txn_begin]
    event and the duration in cycles: each begin is paired with the next
    [Txn_end] of the same track; transactions whose mate fell off the
    ring window are dropped. *)

val latency_samples : dump -> (string * int) list
(** {!transactions} as (track, duration) pairs. *)

val latency_rows : dump -> latency_row list
(** Per-track latency percentiles over {!latency_samples}, log-bucketed
    ({!latency_limits}) through [Metrics.percentile_of], sorted by
    track. *)

val latency_limits : int array
(** Powers of two, 1 .. 65536 cycles. *)

val flamegraph : dump -> string
(** Collapsed-stack flamegraph lines ([frame;frame weight], sorted): one
    stack per component rooted at [kernel], slash-separated name segments
    as frames, weighted by comb evaluations inside the window. Feed to
    flamegraph.pl / inferno / speedscope as-is. *)

val openmetrics : dump -> string
(** OpenMetrics exposition of the dump's embedded metrics snapshot
    (see {!Openmetrics}). Empty families when the dump carried none. *)

val pp_event : Format.formatter -> event -> unit

val summary : dump -> string
(** Human-readable header: ring geometry, drop count, context line, and
    the per-track latency percentile table. *)
