(** Deterministic splitmix64 generator — the one PRNG of the whole code
    base. Same seed, same stream, on every platform and at any worker
    count: the property [Random.State] does not give us, and the
    foundation of the parallel grids' bit-identical-at-any-[-j] guarantee.

    Promoted out of [Check.Specgen] (which re-exports it as
    [Specgen.Rng]) so the fuzzer, the domain pool's seed-splitting and
    the benchmarks all draw randomness from one audited implementation. *)

type t
(** A mutable generator. Never share one value across domains: hand each
    task its own via {!split} or a {!split_seed}-derived {!make}. *)

val make : int -> t
(** [make seed] starts the stream at state [seed]. *)

val of_int64 : int64 -> t

val next : t -> int64
(** Advance one step and return the mixed 64-bit output. *)

val int64 : t -> int64
(** Alias of {!next}. *)

val int : t -> int -> int
(** [int t bound] in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val choose : t -> 'a list -> 'a
(** Raises [Invalid_argument] on an empty list. *)

val split : t -> t * t
(** Two independent child streams (advances the parent twice). Handing
    one child to a spawned task and keeping the other preserves
    determinism no matter how the tasks are scheduled. *)

val mix64 : int64 -> int64
(** The raw splitmix64 finaliser — a stateless avalanche mix, also used
    as the hash step of deterministic result digests. *)

val mix : int64 -> int64 -> int64
(** [mix acc v]: one step of a result digest — [v] folded into [acc]
    through {!mix64}. *)

val mix_string : int64 -> string -> int64
(** {!mix} over the string's bytes, in order. *)

val split_seed : int -> int -> int
(** [split_seed root i]: the derived (non-negative) seed of task [i]
    under root seed [root], with [split_seed root 0 = root] so a
    reported task seed reproduces standalone. Tasks [i <> j] get
    decorrelated streams via {!mix64}. *)
