(** Content-hashed design cache with instance-reset replay.

    Elaborating a host — peripheral, bus adapter, CDC FIFOs, monitors —
    costs far more than the handful of calls an evaluation grid point
    runs on it. This cache keys fully built {!Splice_driver.Host.t}s by
    the canonical content of everything elaboration depends on, and
    replays a hit by rewinding the host to its end-of-elaboration
    snapshot ([Host.reset]) instead of rebuilding.

    The {e scheduler is not part of the key}: one elaborated design
    serves [`Event], [`Sweep] and [`Compiled] — a hit re-targets the
    kernel and the next seal rebuilds what the new scheduler needs
    (under [`Compiled], the op-tape, compiled from the restored values
    exactly as a fresh build compiles it).

    The eval grids use it ([Cycles.measure], the E14 and E8 scheduler
    ablations, the E18 CDC sweep). The differential fuzz sweep does not:
    each of its cells replays its own host across its schedulers and
    drops it at the end of the cell ({!Splice_check.Diff}).

    Determinism contract: a hit is byte-identical to a fresh build —
    rows, digests and stats never depend on the hit/miss pattern. Caches are therefore kept {e per domain} (via
    [Splice_par.Dls], no shared mutation, no locks) and results stay
    bit-equal at any [-j]. Only the hit/miss {e counters} depend on how
    work landed on domains. *)

open Splice_sim
open Splice_driver

type key = {
  k_tag : string;
      (** caller namespace plus any behavior discriminators not visible in
          the source text (e.g. ["eval/interp/splice_plb_simple"]) *)
  k_src : string;  (** canonical spec source text *)
  k_bus : string;
  k_ratio : int * int;  (** CDC clock ratio *)
  k_depth : int;  (** CDC FIFO depth *)
}

val hash_key : key -> int64
(** Canonical content hash (splitmix64 avalanche over the rendered key).
    Lookup compares the full key, so collisions cost a miss, never a wrong
    hit. *)

type t
(** A bounded LRU cache. Not thread-safe — one per domain. *)

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val acquire :
  t -> key:key -> sched:Kernel.sched -> build:(unit -> Host.t) -> Host.t * bool
(** [acquire t ~key ~sched ~build] returns [(host, hit)]. On a hit the
    host is already reset and re-targeted to [sched]; on a miss [build] is
    invoked and the fresh host is snapshotted and inserted (evicting the
    least-recently-used entry when full). Either way the host is ready to
    run. *)

type stats = { hits : int; misses : int; evictions : int; entries : int }

val stats : t -> stats
val capacity : t -> int

(** {1 Per-domain ambient cache}

    The eval grids run one task per pool domain; each domain keeps its
    own cache in a [Splice_par.Dls] slot, so no state is shared across
    domains and worker caches die with the pool. *)

val with_cache :
  key:key -> sched:Kernel.sched -> build:(unit -> Host.t) -> Host.t * bool
(** {!acquire} through this domain's cache, created on first use with
    room for 32 designs. *)

val domain_stats : unit -> stats option
(** Counters of this domain's cache, if one exists. *)
