(** Functional coverage engine: the standard observability instrument of
    silicon verification (SystemVerilog covergroups, CHIPKIT's agile
    methodology) adapted to the simulated harness.

    A coverage map {!t} is a set of named {!group}s, each a set of named
    {!point}s (coverpoints). A point owns an ordered list of bins — value
    bins, inclusive ranges, transition pairs, or the 2-way cross of two
    sibling points — and a hit counter per bin. Sampling is a linear scan
    over a handful of bins with zero hashing or allocation: call sites
    resolve their points once, cold, and capture them in closures — the
    same stamp-keyed interning discipline as [Obs.Recorder].

    Maps merge deterministically: {!merge_into} sums bin counters of
    identically-shaped points, so folding per-task maps in canonical task
    order in the orchestrator (the [Metrics.merge_into] discipline)
    produces byte-identical serialized maps at any worker count.

    A map reaches the components that sample into it as an argument: a
    host given one ([Host.create ~cover]) hands it to its bus model's
    [connect], which passes it on to the adapter engine. *)

type t
type group
type point

type bins =
  | Values of (string * int) list  (** bin name, exact value *)
  | Ranges of (string * int * int) list  (** bin name, lo, hi (inclusive) *)
  | Transitions of (string * int * int) list  (** bin name, from, to *)

val create : unit -> t

val group : t -> string -> group
(** Find or create. *)

val point : group -> string -> bins -> point
(** Find or create. Re-declaring an existing point with a different shape
    raises [Invalid_argument] — bins are part of the point's identity. *)

val cross : group -> string -> point -> point -> point
(** 2-way cross of two value/range points: one bin per (a, b) pair, named
    ["a*b"]. Find or create, same identity rule as {!point}. *)

(** {1 Sampling} (hot path) *)

val sample : point -> int -> unit
(** Count the first bin containing the value; no bin, no count. Raises
    [Invalid_argument] on transition and cross points. *)

val sample_pair : point -> from_:int -> to_:int -> unit
(** Count a matching transition bin. Transition points hold no hidden
    last-value state — the caller owns the previous value — so points
    stay pure counters and merge trivially. *)

val sample2 : point -> int -> int -> unit
(** Count the cross bin for (a-value, b-value); either axis missing its
    bin drops the sample. *)

(** {1 Reading} *)

val groups : t -> group list
(** Sorted by name. *)

val points : group -> point list
(** Sorted by name. *)

val find_group : t -> string -> group option
val find_point : group -> string -> point option
val group_name : group -> string

val bins : point -> (string * int) list
(** (bin name, hits) in declaration order. *)

val bin_ranges : point -> (string * int * int * int) list
(** (bin name, lo, hi, hits) in declaration order; transition bins read
    as (from, to). *)

val cross_bins : point -> ((string * int * int) * (string * int * int) * int) list
(** Cross products as ((a-bin name, lo, hi), (b-bin name, lo, hi), hits).
    Raises [Invalid_argument] on non-cross points. *)

val hit : point -> int
(** Bins with at least one hit. *)

val total : point -> int

val totals : ?prefix:string -> ?points:string list -> t -> int * int
(** (hit, total) over every bin of every point, restricted to groups whose
    name starts with [prefix] and points whose name is in [points] when
    given. *)

val merge_into : into:t -> t -> unit
(** Sum the source's bin counters into [into], creating missing groups and
    points. Commutative and associative on counts; raises
    [Invalid_argument] if a shared point has a different shape. *)

(** {1 Serialization} — canonical: groups and points sorted by name, bins
    in declaration order, so equal maps have equal bytes. *)

val to_json : t -> Splice_obs.Json.t
val of_json : Splice_obs.Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result

val load : string -> (t, string) result
(** Read and parse a map file; [Error] (never an exception) on a missing,
    unreadable or unparsable file. *)

val save : t -> string -> unit

val report : t -> string
(** Human per-group hit/hole report with a percentage summary. *)

val openmetrics : t -> string
(** OpenMetrics text exposition: one [cover/<group>/<point>/<bin>]
    counter per bin plus [cover/bins_hit] / [cover/bins_total] gauges,
    terminated by [# EOF]. *)
