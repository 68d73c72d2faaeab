(** Two-phase synchronous simulation kernel with event-driven delta-cycle
    scheduling.

    Each {!cycle}:
    + settle the combinational logic: run component [comb] callbacks, in
      registration order, until no signal changes (fixpoint) — raising
      {!Comb_divergence} after [max_comb_iters] delta passes;
    + run every check registered with {!add_check}, in registration order:
      the protocol monitors and the observers (metrics, coverage
      samplers), all reading the settled pre-edge view;
    + run the [seq] callback of every component that has one, in
      registration order (all observe settled pre-edge values), and commit
      their deferred writes simultaneously.

    {!create} records the domain's signal store ({!Signal.store}); every
    cycle hands it to the settle, its pass loops and the commit without
    looking it up again. Cycle a kernel only in the domain that created
    it, with signals created there.

    {1 Scheduling}

    Under the default [`Event] scheduler the kernel keeps a dirty set: a
    delta pass only re-evaluates components whose declared sensitivities
    (see {!Component.make}) changed — via a signal fan-out listener or the
    component's own state-change announcement ({!Component.rearm}).
    The [`Sweep] scheduler is the original behaviour — every component on
    every pass — kept for the E14 ablation and as a migration oracle.

    The [`Compiled] scheduler compiles the sealed design into a linear
    op-tape (see {!Tape}): the component graph is levelized from the
    declared sensitivities, read-signal state is flattened into contiguous
    structure-of-arrays buffers, and the settle loop walks the tape with an
    int-bitset dirty set and zero allocation — no per-signal listener
    closures at all. All three schedulers produce identical settled values,
    cycle counts, and traces for components whose sensitivity declarations
    are accurate; [`Event] and [`Sweep] serve as differential oracles for
    [`Compiled] in the fuzz grids.

    Clocked processes — [seq]s and checks — may declare when running them
    changes nothing ({!Sleep}); under [`Event] a kernel on
    [Splice_obs.Obs.none] skips them then, and jumps over ticks where
    every process sleeps (see {!run}).

    {e Iteration accounting}: a kernel's [comb_iters] counts
    {e productive} delta passes — passes in which at least one signal
    changed value. A settle that finds the design already quiescent
    reports 0 (the bookkeeping pass that merely verifies the fixpoint is
    not counted, and the per-scheduler divergence guards keep counting
    executed passes). [`Event] and [`Sweep] count alike. [`Compiled] can
    read fewer: its seal-time calibration pass evaluates every comb once
    before the first settle and is not counted, so a change that pass
    makes is no settle's productive pass (on an AXI host the async FIFOs'
    [empty] flags rise there, and the tape reads one pass fewer per host).
    [comb_evals], by contrast, counts callback invocations and
    legitimately differs between schedulers — it is the work a better
    scheduler saves.

    The first cycle (or any cycle after a registration) {e seals} the
    kernel: registration lists are snapshotted into forward-order arrays and
    fan-out listeners are attached, so the per-cycle hot path never
    re-reverses or re-counts lists. The clocked loop's array holds only the
    components registered with a [seq]; a comb-only component costs nothing
    on an edge. (The sweep still evaluates every registered component on
    every pass, a comb-less one as a counted no-op.)

    Every kernel owns a {!Splice_obs.Obs.t} observability context;
    instrumented components reach it through {!obs}. The kernel's own
    metrics — counters [sim/cycles], [sim/checks_run], [sim/comb_evals] and
    the [sim/comb_iters] histogram of productive delta passes per settle —
    are views of the totals behind {!stats}: the cycle loop touches no
    metric, and a sync hook ({!Splice_obs.Metrics.on_read}) folds what
    changed into the registry whenever it is read. Several kernels may
    share one context; its [sim/*] metrics then sum theirs.

    When the context carries a flight recorder ([Obs.recorder], the
    default), the kernel additionally records the post-mortem event
    stream: it re-attaches the recorder to the domain-local signal store
    every cycle (so each actual signal transition lands in the ring; the
    same recorder is not stored again), logs one [Comp_eval] per
    combinational evaluation, one [Sched_pass] per settled cycle, and —
    immediately before a {!Check_failed} propagates — a [Check_fail]
    event naming the failing check, so a dump taken at the catch site
    ends at the violation. A passing check records nothing. *)

type t

type domain
(** A clock domain: a named edge schedule on the kernel's tick grid. A
    kernel tick is one step of the fastest common grid; a domain with
    period [p] and phase [ph] has a clock edge on every tick [n] with
    [n mod p = ph]. Rational frequency ratios are expressed as coprime
    periods — e.g. a 3:1 fast:slow pair is periods 1 and 3, a 5:2 pair is
    periods 2 and 5. Every kernel starts with a {e base} domain of period
    1, so single-clock designs are untouched. Components and checks are
    tagged with a domain at registration: a component's
    [seq] runs (and its deferred writes clock) only on its domain's
    edges, while combinational settling remains global — exactly the RTL
    picture of shared combinational nets between independently clocked
    registers. Interleaving on coincident edges is registration order,
    which is scheduler-independent, so multi-clock designs stay
    deterministic and identical under all three schedulers. *)

type sched = [ `Event | `Sweep | `Compiled ]
(** [`Event]: dirty-set scheduling driven by sensitivity lists (default).
    [`Sweep]: legacy re-evaluate-everything fixpoint loop.
    [`Compiled]: seal-time op-tape compilation (levelize → SoA flatten →
    tape emit), allocation-free settle — see {!Tape}. *)

type stats = {
  cycles : int;
  comb_iters : int;
  comb_evals : int;
  checks_run : int;
  stepped : int;
  elaborate_ns : int64;
  seal_ns : int64;
  compile_ns : int64;
}
(** Aggregate kernel counters: cycles simulated, total {e productive} delta
    passes across all cycles (identical across schedulers on an accurately
    declared design), total comb-callback invocations (the work a better
    scheduler saves — this one differs by design), total check
    executions (protocol monitors and observers alike). [stepped] is the ticks {!cycle} actually ran: every tick
    on a kernel that steps, fewer on one that jumps (see {!run}); the
    other counters are the same either way.

    The [_ns] fields are build-phase wall-clock accounting, distinct from
    settle time: [elaborate_ns] is the design construction cost stamped by
    the host ({!note_elaborate_ns}), [seal_ns] the registration-snapshot /
    listener-wiring cost, [compile_ns] the op-tape compilation cost (only
    under [`Compiled]). A cache replay reports [elaborate_ns = 0] — the
    amortized phase — which is what makes cache wins measurable rather
    than inferred. *)

exception Comb_divergence of { cycle : int; iterations : int }

exception Timeout of { cycle : int; elapsed : int; waiting_for : string }
(** [cycle] is the absolute kernel cycle at expiry, [elapsed] the cycles
    consumed by the timed-out {!run_until} call, [waiting_for] its [what]
    label. *)

exception Check_failed of { cycle : int; check : string; message : string }

val create :
  ?max_comb_iters:int -> ?sched:sched -> ?obs:Splice_obs.Obs.t -> unit -> t
(** [max_comb_iters] defaults to 64. [sched] defaults to [`Event]. [obs]
    defaults to a fresh enabled context (pass [Splice_obs.Obs.none] to opt
    out of instrumentation). An enabled [obs] gets this kernel's metrics
    sync hook. *)

val add : t -> Component.t -> unit
(** Evaluation order is registration order (within each delta pass).
    Registers into the base domain. *)

val base_domain : t -> domain
(** The period-1 domain every kernel is born with. *)

val add_domain : t -> name:string -> ?phase:int -> period:int -> unit -> domain
(** Register a new clock domain. [period >= 1] is the tick count between
    edges; [phase] (default 0, must be [< period]) offsets the first edge.
    Raises [Invalid_argument] on a duplicate name, so {!find_domain} is
    unambiguous. *)

val find_domain : t -> string -> domain option
val domain_name : domain -> string
val domain_period : domain -> int
val domain_phase : domain -> int

val domain_cycles : domain -> int
(** Edges fired so far — the domain-local cycle counter. For the base
    domain this equals {!cycles}. It is the clock the domain's processes
    read with {!Sleep.now}. *)

val fires : t -> domain -> bool
(** Whether the domain has an edge on the tick currently in flight. Valid
    inside checks (before the kernel increments its tick counter); checks
    registered with {!add_check_in} are already gated, so this is mostly
    for ad-hoc probes and tests. *)

val add_in : t -> domain -> Component.t -> unit
(** Like {!add} but the component's [seq] clocks only on [domain] edges.
    Its [comb] still participates in every settle. Points the component's
    {!Sleep.t} at the domain's edge counter ({!rehome_all} re-points it). *)

val rehome_all : t -> domain -> unit
(** Retag {e everything registered so far} — components and checks — into
    [domain]. Bus adapters that put the peripheral in a slow clock domain
    use this: the peripheral, its protocol monitors and its observers are
    registered before the bus connects, and all of them belong on the
    peripheral-side clock. *)

val add_check : ?sleep:Sleep.t -> t -> string -> (int -> unit) -> unit
(** [add_check k name f]: [f cycle] runs after the comb fixpoint each
    cycle and before any [seq], so every signal and every model's state
    shows its settled pre-edge value. A protocol monitor raises
    {!Check_failed} (via {!check_fail}) on a violation; an observer
    (metrics, coverage, the cycle breakdown) raises nothing and declares
    no sleep, so it runs on every edge of its domain. [sleep] is the handle through which [f] declares when it
    may be skipped ({!Sleep}); without one the check is always awake. A
    sleeping check is also woken by any signal change since it last ran,
    so one that reads only signals and its own history needs no
    [wake_on]. A check skipped because it sleeps still counts in
    [stats.checks_run]. *)

val add_check_in :
  ?sleep:Sleep.t -> t -> domain -> string -> (int -> unit) -> unit
(** Like {!add_check}, but [f] runs only on ticks where [domain] fires —
    protocol monitors for a slow-side bus must not sample between that
    side's edges. *)

val check_fail : cycle:int -> check:string -> string -> 'a
(** Raise a {!Check_failed}. *)

val cycle : t -> unit
(** Run one tick. *)

val run : t -> int -> unit
(** [run k n] executes [n] cycles.

    {b Sleep and jumps.} Under [`Event] on a kernel built on
    [Splice_obs.Obs.none], a tick calls only the awake [seq]s and checks
    ({!Sleep}); a sleeping one would have changed nothing. And when a tick
    changed no signal and left no component dirty, and every process
    sleeps, the ticks up to the earliest
    deadline would all run no code: [run] and {!run_until} jump over them,
    crediting their domain edges and due checks, so {!cycles},
    {!domain_cycles} and every {!stats} counter but [stepped] read as if
    each tick had run. A jump never passes the end of the
    [run] or the [max] of a {!run_until}. Every other kernel runs every
    process on every tick of its domain. *)

val run_until : ?max:int -> ?what:string -> t -> (unit -> bool) -> int
(** [run_until k p] cycles until [p ()] is true (tested after each full
    cycle); returns the number of cycles consumed. Raises {!Timeout} after
    [max] (default 100_000) cycles. [p] must be a function of the design's
    state, not of the tick count: it is not tested on the ticks a jump
    (see {!run}) credits, on which that state cannot change. *)

val cycles : t -> int
(** Total ticks simulated so far (base-domain cycles). *)

val id : t -> int
(** Process-unique kernel id (never 0, never reused). Side registries that
    associate extra structure with a kernel — e.g. a bus model publishing
    its native channel signals for monitors — key on this. *)

val obs : t -> Splice_obs.Obs.t
(** The kernel's observability context. The recorder's event clock is set
    at the start of every cycle; the [sim/*] metrics are views, filled in
    when the context is read. *)

val sched : t -> sched
(** The scheduler this kernel was created with. *)

val check_names : t -> string list
(** Names of the protocol checks registered so far, in registration order —
    lets a harness report which monitors guarded a run. *)

val stats : t -> stats
(** Kernel-level counters, available without any exporter. *)

val note_elaborate_ns : t -> int64 -> unit
(** Accumulate design-elaboration wall time into [stats.elaborate_ns];
    called by the host that timed the build with {!Splice_obs.Obs.now_ns},
    the clock seal/compile are timed with. *)

(** {1 Instance reset (design-cache replay)}

    A finished kernel can be brought back to its end-of-elaboration state
    and re-run: {!reset} rewinds everything the kernel owns (counters,
    domain clocks, dirty bookkeeping, sleep states, the seal) and replays
    the design's construction-time state via per-component [reset] callbacks
    ({!Component.make}) and kernel-level {!at_reset} hooks. The caller
    restores signal values around it. The kernel is left unsealed, so the
    first replay cycle re-seals — re-interning check ids and recompiling
    the tape under [`Compiled] — exactly the sequence a fresh build
    executes; replay outputs and {!stats} are bit-identical to a fresh
    host's. The observability context is not rewound: the [sim/*] views
    keep what earlier runs recorded and add the replay's totals to it. *)

val reset : ?sched:sched -> t -> unit
(** Rewind to the end-of-elaboration state; [sched] re-targets the kernel
    to a different scheduler (the cache's scheduler-switching reuse). *)

val at_reset : t -> (unit -> unit) -> unit
(** Register a design-level reset action (run after every component's own
    [reset], in registration order): cover watchers, FIFO memories,
    connect-time side effects a replay must reproduce. *)
