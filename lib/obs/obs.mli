(** Observability context: one metrics registry and one optional flight
    recorder for a simulation.

    A context is owned by each simulation kernel ([Kernel.create ?obs]) and
    handed to every instrumented component at wiring time. An enabled
    context's metrics are integer mutations only, or views filled in on
    read; its flight recording is on by default ([~recording:false] opts
    out) because a recorded event is two word stores into a bounded ring.
    Runs whose output nobody reads (fuzz sweeps, the Fig 9.2 grid) are
    built on [none]. The recorder is the one capture
    path for transactions — bus transfers, SIS word transfers and driver
    calls are [Txn_begin]/[Txn_end] pairs on their own tracks, which both
    the post-mortem dump and the Chrome-trace export read. [none] is a
    shared disabled context: instrumented code guards recording with
    {!active}, so components wired to it record nothing.

    A context outlives the runs it observes: when its host is reset for a
    replay ([Host.reset]), the design is rewound but the context is not —
    its metrics and its recording keep accumulating across the runs, the
    way {!merge} sums the contexts of separate runs. *)

type t

val create : ?recording:bool -> ?ring:int -> unit -> t
(** A fresh enabled context. [recording] (default true) attaches a flight
    recorder holding the last [ring] (default
    [Recorder.default_capacity]) packed events — the post-mortem window
    dumped when a protocol check fails, and the source of the Chrome
    trace ({!Export.chrome_trace}). *)

val none : t
(** Shared disabled context — the zero-overhead opt-out. *)

val active : t -> bool

val metrics : t -> Metrics.t
(** The context's registry. On a disabled context (such as {!none}) each
    call returns a fresh empty registry, so whatever is registered on it
    is attached to nothing shared: [Metrics.counters (metrics none)] is
    always [[]]. *)

val recorder : t -> Recorder.t option
(** The flight recorder, [None] when recording was opted out or the
    context is disabled — callers never record into [none]. *)

val merge : into:t -> t -> unit
(** Fold one task's context into an aggregate: metrics merge by
    {!Metrics.merge_into} (commutative + associative, so aggregate stats
    such as [sim/comb_evals] and the cycle histograms sum identically at
    any worker count). Flight recordings are
    {e not} merged: each is a per-task black box, and the Chrome trace
    keeps tasks apart as one process per recorder. No-op when {e either}
    context is disabled (symmetric: a disabled [src] has nothing to
    contribute, and the shared disabled [none] must never accumulate
    state); raises [Invalid_argument] when both are the same context. *)

val now_ns : unit -> int
(** Monotonic wall time in nanoseconds ([CLOCK_MONOTONIC]; the origin is
    arbitrary, so only differences mean anything). The one clock every
    duration in the library and the CLI reads: kernel build phases, the
    fuzz harness's build/simulate split, [splice fuzz --json]'s wall time
    and rates, and the service's spans and uptime. *)
