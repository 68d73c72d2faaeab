(** Observability context: one metrics registry and one optional flight
    recorder for a simulation.

    A context is owned by each simulation kernel ([Kernel.create ?obs]) and
    handed to every instrumented component at wiring time. Metrics are
    always on (integer mutations only, or views filled in on read);
    flight recording is on by default ([~recording:false] opts out)
    because a recorded event is two word stores into a bounded ring. The recorder is the one capture
    path for transactions — bus transfers, SIS word transfers and driver
    calls are [Txn_begin]/[Txn_end] pairs on their own tracks, which both
    the post-mortem dump and the Chrome-trace export read. [none] is a
    shared disabled context: instrumented code guards recording with
    {!active}, so components wired to it record nothing. *)

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

val recorder : t -> Recorder.t option
(** The flight recorder, [None] when recording was opted out or the
    context is disabled — callers never record into [none]. *)

val merge : into:t -> t -> unit
(** Fold one task's context into an aggregate: metrics merge by
    {!Metrics.merge_into} (commutative + associative, so aggregate stats
    such as [sim/comb_evals] and the cycle histograms sum identically at
    any worker count), [now] takes the maximum. Flight recordings are
    {e not} merged: each is a per-task black box, and the Chrome trace
    keeps tasks apart as one process per recorder. No-op when {e either}
    context is disabled (symmetric: a disabled [src] has nothing to
    contribute, and the shared disabled [none] must never accumulate
    state); raises [Invalid_argument] when both are the same context. *)

val now : t -> int
(** The owning kernel's cycle count ([Kernel.cycles]) — a view the kernel
    fills in through its metrics sync hook ({!Metrics.on_read}), so no
    cycle writes it — or whatever {!set_now} or {!merge} last left. *)

val set_now : t -> int -> unit
(** Set the context's cycle clock. The flight recorder's event clock is
    separate ({!Recorder.set_now}) and maintained by the kernel. *)

val now_ns : unit -> int
(** Monotonic wall time in nanoseconds ([CLOCK_MONOTONIC]; the origin is
    arbitrary, so only differences mean anything). The one clock every
    wall-time measurement in the library reads: kernel build phases, the
    fuzz harness's build/simulate split and the service's spans. *)

(** {1 Marks (design-cache replay)} *)

type mark
(** Metrics-registry sizes and recorder intern-table position at a point in
    time — taken by a host at the end of design elaboration. *)

val mark : t -> mark

val reset_to_mark : t -> mark -> unit
(** Rewind to the marked state: drop metrics registered after the mark and
    zero the rest ({!Metrics.reset_to_mark}), forget recorded events and
    post-mark interned subjects ({!Recorder.reset_to_mark}), and reset the
    cycle clock — so a cache-hit replay produces metrics and dumps
    byte-identical to a fresh build's. *)
