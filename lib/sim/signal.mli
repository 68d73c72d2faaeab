(** Simulation signals: named, width-tagged wires with immediate
    (combinational) and deferred (registered) assignment.

    Combinational drives ({!set}) take effect immediately and bump a
    change counter the kernel uses for fixpoint detection. Registered drives
    ({!set_next}) are queued and commit simultaneously when the kernel calls
    {!commit_pending} at the clock edge — so every sequential process observes
    pre-edge values, as in RTL.

    The pending queue, change counter and default-name counter are
    {e domain-local} (one store per OCaml domain, via [Domain.DLS]): within a
    domain run one {!Kernel} at a time, as before, while pool workers
    (see [Splice_par.Pool]) each get an independent store — concurrent
    kernels in different domains never share signal state. {!create}
    records the domain's store in the signal, and every write and change
    goes to that store without a domain-local lookup: never pass a signal
    created in one domain to a kernel cycling in another, nor write it
    there. *)

open Splice_bits

type t

val create : ?name:string -> int -> t
(** [create ~name width] with initial value zero. *)

val name : t -> string

val uid : t -> int
(** Domain-unique id, assigned at creation and never reused. Unlike the
    default-name counter it is not affected by {!reset_names}, so it is a
    safe hash key for side tables (the compiled scheduler's slot map). *)

val width : t -> int

val narrow : t -> bool
(** The value-store rule: a signal of width [<= 62] is {e narrow} and keeps
    its value as an immediate [int] (every such value is a non-negative
    OCaml int, so {!get_int} cannot fail on it). Reads and change detection
    on narrow signals are int operations, and {!set_bool}, {!set_int} and
    the deferred int writes store the int and nothing else: no [Bits.t] is
    built and no write barrier paid. 63- and 64-bit signals are wide and
    hold only a [Bits.t]. *)

val get : t -> Bits.t
(** A wide signal's value, or a narrow signal's value as a [Bits.t]. The
    narrow signal caches it: the first [get] after an int write changed the
    value builds it ({!Bits.of_int}, which allocates nothing for widths
    [<= 8]), and later reads allocate nothing until the value changes
    again. A value written as a [Bits.t] ({!set}, {!set_next}) is cached
    as it came. *)

val get_bool : t -> bool
(** True iff non-zero (any width). *)

val get_int : t -> int
(** The immediate of a narrow signal. On a wide signal raises [Failure]
    when the value does not fit a non-negative OCaml [int]. *)

val set : t -> Bits.t -> unit
(** Immediate combinational drive. Raises [Bits.Width_mismatch] when widths
    differ. *)

val set_bool : t -> bool -> unit
(** For 1-bit signals. *)

val set_int : t -> int -> unit
(** Masked to the signal width. *)

val set_next : t -> Bits.t -> unit
(** Deferred registered drive; last write to a signal in a cycle wins.
    Queuing a write allocates nothing in the steady state (the queue is a
    reused array store). The queue keeps a [Bits.t] only for writes that
    come in as one ({!set_next}, or {!set_next_int} on a wide signal) and
    marks them in its immediate column; an int write stores the signal
    and its immediate, and pays a single write barrier. *)

val set_next_bool : t -> bool -> unit
val set_next_int : t -> int -> unit

val change_count : unit -> int
(** Domain-local counter incremented whenever any signal actually changes
    value. *)

(** {1 The store, looked up once}

    The writes above use the store recorded in their signal. The
    operations that name no signal ({!change_count}, {!commit_pending},
    {!attach_recorder}, ...) look the domain's store up with a
    [Domain.DLS] read. A caller that makes such operations on every tick
    — the kernel, which records the store when it is created — looks the
    store up once with {!store} and passes it to the variants below. A
    store is only valid in the domain that looked it up. *)

type store

val store : unit -> store
(** This domain's signal store. *)

val changes : store -> int
(** {!change_count} of the given store. *)

val commit : store -> unit
(** {!commit_pending} on the given store. *)

val attach : store -> Splice_obs.Recorder.t option -> unit
(** {!attach_recorder} on the given store. Stores only a recorder
    physically different from the attached one, so re-attaching the same
    recorder on every tick writes nothing. *)

val pending : store -> int
(** The number of writes queued since the last commit (last-write-wins
    happens at commit, so two writes to one signal count twice). *)

val on_change : t -> (unit -> unit) -> unit
(** [on_change s f] subscribes [f] to the signal's fan-out list: it fires
    whenever the signal's value actually changes (immediately after the new
    value becomes visible), whether via {!set} or a {!commit_pending}. The
    event-driven kernel uses this to mark reader components dirty; listeners
    must be cheap, must not drive signals, and cannot be removed. *)

val attach_recorder : Splice_obs.Recorder.t option -> unit
(** Point the domain-local signal store at a flight recorder (or detach
    with [None]): every subsequent {e actual} value change in this domain
    — immediate {!set} or committed {!set_next} — is recorded as a
    [Signal_change] event. The cycling kernel re-attaches its own
    recorder (or [None]) at the start of every cycle and nothing detaches
    it afterwards. So a change made during a kernel's cycle lands in that
    kernel's ring, and a change made between cycles lands in the ring of
    the kernel that cycled last in this domain, whichever kernel the
    signal belongs to (none, if that kernel records nothing). Intern ids
    are cached on the signal (keyed by the recorder's stamp): recording
    never hashes. *)

val set_touch : store -> (t -> unit) option -> unit
(** Install (or with [None] remove) the domain-local write hook: it fires on
    every {e actual} value change, after the recorder but before the fan-out
    listeners. The compiled scheduler installs it only for the duration of a
    settle to maintain its dirty bitset; at most one hook is active per
    domain, and installers must remove it on every exit path. *)

val tape_stamp : t -> int
val tape_slot : t -> int

val cache_tape_slot : t -> stamp:int -> slot:int -> unit
(** Tape-owned slot cache (the {!Splice_obs.Recorder} intern-id idiom):
    {!tape_slot} is valid while {!tape_stamp} equals the asking tape's
    stamp, so the settle-time write hook resolves signal → slot with two
    field reads instead of a hash lookup. [-1] encodes "no tape component
    reads this signal". *)

val commit_pending : unit -> unit
(** Apply all queued {!set_next} writes. Called by the kernel. The queue is
    emptied before any write is applied, so an exception raised mid-commit
    (e.g. a [Width_mismatch]) never leaves stale writes to be replayed by
    the next cycle. *)

val clear_pending : unit -> unit
(** Drop queued writes (used when tearing a simulation down mid-cycle). *)

val clear_pending_for : owner:int -> unit
(** Drop only the queued writes to signals stamped with [owner] (see
    {!set_owner}). A harness retiring one simulation mid-cycle uses this so
    it cannot drop writes belonging to a cached design that will replay
    later in the same domain. *)

val set_owner : t -> owner:int -> unit
(** Stamp the signal as belonging to the design of the kernel with id
    [owner] (a {!Kernel.id}; 0 = unowned). Hosts stamp every signal they
    create so teardown can scope {!clear_pending_for}. *)

val owner : t -> int

val record_created : (unit -> 'a) -> 'a * t array
(** [record_created f] runs [f] and returns its result together with every
    signal created (in this domain) during the call, in creation order.
    Nest-safe: an inner window observes only its own creations while the
    outer window keeps accumulating. Hosts wrap design elaboration in this
    to learn the signal set they must snapshot for cache replay. *)

val restore_value : t -> Bits.t -> unit
(** Write a snapshotted value back {e silently}: no listeners, no recorder
    event, no change-counter bump. Only for cache replay, between a
    {!Kernel} reset and the next cycle — nothing may be watching. Raises
    [Bits.Width_mismatch] like {!set}. *)

val reset_names : unit -> unit
(** Restart the domain-local [sigN] default-name counter. Harnesses that
    build one isolated simulation per task call this first, so default
    names — which can appear in failure messages — do not depend on what
    else ran in the same domain. *)
