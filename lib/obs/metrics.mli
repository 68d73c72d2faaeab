(** Metrics registry: counters, gauges, and fixed-bucket histograms.

    Built for always-on use inside the cycle-accurate simulation: every
    recording operation is a few integer mutations on a pre-registered
    record — no allocation, no hashing, no formatting on the hot path —
    and a metric whose value its owner already keeps is a view, filled in
    on read (see {!on_read}).
    Registration ([counter] / [gauge] / [histogram]) is find-or-create by
    name and is expected at component-construction time only.

    Metric names are slash-separated paths by layer:
    [sim/…], [bus/<name>/…], [arbiter/…], [sis/…], [driver/…],
    [breakdown/…] (see the Observability section of DESIGN.md). *)

type t
(** A registry. Each simulation kernel owns one (via [Obs.t]). *)

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Registration (cold path)} *)

val counter : t -> string -> counter
(** Find-or-create: the same name always yields the same record. *)

val gauge : t -> string -> gauge

val histogram : ?limits:int array -> t -> string -> histogram
(** [limits] are inclusive upper bucket bounds, strictly increasing
    (default powers of two 1..1024); one overflow bucket is appended.
    Raises [Invalid_argument] on non-increasing limits. *)

val default_limits : int array

(** {1 Recording (hot path — no allocation)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val observe : histogram -> int -> unit

val observe_n : histogram -> int -> int -> unit
(** [observe_n h v k] records [v] [k] times at once (no-op for [k <= 0]),
    exactly as [k] calls of {!observe} would. *)

(** {1 Views (on-read sync)}

    A metric whose value a component already keeps elsewhere — the kernel's
    cycle, check and evaluation totals — need not be written on the hot
    path. Its owner registers a sync hook instead, which folds the
    increments since the hook's previous run into the metric's record.
    Every registry read below ({!counters}, {!gauges}, {!histograms},
    {!counter_value}, {!find_histogram}, {!merge_into} on its source) runs
    the hooks first, so what a reader sees is what eager
    recording would have produced. Registration never syncs, and neither
    do the handle readers ({!count}, {!observations}, ...): a handle
    reflects the last registry read. *)

val on_read : t -> (unit -> unit) -> unit
(** Register a sync hook; hooks are never removed. *)

val sync : t -> unit
(** Run every sync hook now. *)

(** {1 Reading} *)

val count : counter -> int
val level : gauge -> int
val observations : histogram -> int
val total : histogram -> int
val mean : histogram -> float
val min_value : histogram -> int
val max_value : histogram -> int

val bucket_counts : histogram -> (int option * int) list
(** (upper bound, count) per bucket in order; [None] is the overflow
    bucket. *)

val percentile : histogram -> float -> int
(** [percentile h q] for [q] in [0..1]: the smallest bucket upper bound
    whose cumulative count reaches rank [ceil (q * n)] (clamped to
    [1..n]), itself clamped to {!max_value} — so p100 is exact and no
    percentile exceeds an observed value. Overflow-bucket ranks report
    {!max_value}. 0 when the histogram is empty. *)

val percentile_of :
  limits:int array -> buckets:int array -> n:int -> vmax:int -> float -> int
(** The same computation over raw bucket data ([buckets] may carry one
    trailing overflow bucket beyond [limits]) — for histograms
    reconstructed from flight-recorder dumps rather than registered
    here. *)

val counters : t -> counter list
(** Sorted by name. *)

val gauges : t -> gauge list
val histograms : t -> histogram list
val counter_name : counter -> string
val gauge_name : gauge -> string
val histogram_name : histogram -> string

val counter_value : t -> string -> int
(** 0 when the counter was never registered. *)

val find_histogram : t -> string -> histogram option

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src] into [into], by metric name:
    counters and histograms sum (bucket-wise; min/max widen), gauges take
    the maximum level. Every rule is commutative and associative, so
    folding the per-task registries of a parallel grid yields the same
    aggregate at any worker count and in any completion order. Raises
    [Invalid_argument] when two histograms of the same name have
    different bucket limits. [src] is not modified. *)

val merged : t list -> t
(** A fresh registry holding the {!merge_into} fold of every input, none
    of which is modified — the one-shot composition a live [/metrics]
    scrape wants over a service's registries. *)
