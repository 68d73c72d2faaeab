(** End-to-end harness: spec + bus adapter + peripheral + CPU in one kernel.

    [call] performs one complete hardware function invocation the way the
    generated C driver would — build the macro program, execute it, decode
    the result — and reports the bus-clock cycles consumed, the quantity
    Fig 9.2 compares. *)

open Splice_sim
open Splice_sis
open Splice_syntax

type t

val create :
  ?monitor:bool ->
  ?issue_overhead:int ->
  ?lean_driver:bool ->
  ?bus:(module Splice_buses.Bus.S) ->
  ?obs:Splice_obs.Obs.t ->
  ?sched:Kernel.sched ->
  ?cover:Splice_cover.Cover.t ->
  ?cdc:Splice_buses.Bus.cdc ->
  Spec.t ->
  behaviors:(string -> Stub_model.behavior) ->
  t
(** [bus] defaults to the registry entry for [spec.bus_name]; raises
    [Failure] when the bus is unknown. [lean_driver] models hand-optimised
    driver code (see {!Program.of_plan}). [obs] becomes the kernel's
    observability context (default: a fresh enabled context — metrics and
    flight recorder); every layer — kernel, bus adapter, arbiter, SIS
    monitor, CPU, and the host's own [driver/<func>] call track — is
    wired to it. [sched] selects the kernel's comb scheduler (default
    event-driven; [`Sweep] is the legacy oracle the E14 ablation compares
    against).

    The bus model's build inputs travel as arguments of its
    {!Splice_buses.Bus.S.connect}, and only from here: [monitor]
    (default on) also turns on the model's own native checks (the AXI
    bridge's ["axi-channels"]); [cdc] (default
    {!Splice_buses.Bus.default_cdc}) is the clock-domain-crossing
    configuration; [cover], when given, gets the bus's protocol group
    declared ({!Splice_cover.Bus_cover.declare}) before the bus connects,
    so the adapter engine samples transactions into it, and the
    cycle-level sampler attached ({!Splice_cover.Bus_cover.attach})
    inside the elaboration window. *)

val call :
  ?instance:int ->
  ?max_cycles:int ->
  t ->
  func:string ->
  args:(string * int64 list) list ->
  int64 list * int
(** Returns (result elements, cycles taken). Raises [Not_found] for unknown
    functions. *)

val call_full :
  ?instance:int ->
  ?max_cycles:int ->
  t ->
  func:string ->
  args:(string * int64 list) list ->
  int64 list * (string * int64 list) list * int
(** Like {!call} but also returns the values of pass-by-reference parameters
    after the call (§10.2), as (result, readbacks, cycles). *)

val kernel : t -> Kernel.t
val spec : t -> Spec.t

val signals : t -> Signal.t list
(** The signals the design owns (see {!adopt}), in creation order. *)

val obs : t -> Splice_obs.Obs.t
(** The kernel's observability context ([Kernel.obs (kernel t)]). *)

val attach_cycle_breakdown : t -> unit
(** Register a per-cycle classifier (the ["cycle-breakdown"] observer
    check) that attributes every simulated cycle
    to exactly one of the counters [breakdown/calc] (a stub is computing),
    [breakdown/bus] (a bus transaction in flight), [breakdown/driver] (CPU
    issuing/stalling), or [breakdown/idle] — so their sum equals
    [Kernel.cycles] and a run's total splits into per-layer budgets. *)

val peripheral : t -> Peripheral.t
val port : t -> Splice_buses.Bus_port.t
val cpu : t -> Cpu.t
val sis : t -> Sis_if.t

val plan_for :
  t -> func:string -> args:(string * int64 list) list -> Plan.t

(** {1 Instance reset (replay)}

    A host owns every signal created while it was built ({!create} records
    them and stamps their owner; {!adopt} extends the set with post-build
    attachments such as protocol monitors). {!prepare_reuse} snapshots the
    end-of-elaboration state; {!reset} rewinds the design to it, so a fuzz
    cell's later schedulers and a design-cache hit replay the host by
    restoring signal values instead of re-elaborating — and the replay's
    results, digests and [Kernel.stats] are byte-identical to a fresh
    build's. Reset rewinds the design, not its observations: an
    instrumented host's metrics and flight recording keep accumulating
    across runs, the way [Obs.merge] sums separate runs. *)

val adopt : t -> (unit -> 'a) -> 'a
(** Run an attachment step (e.g. [Bus_monitor.attach]) with its signal
    creations recorded into the host's owned set and its wall time counted
    as elaboration. *)

val retire : t -> unit
(** Drop deferred writes queued by this design ({e only} this design):
    scoped teardown after an aborted call. A fuzz cell retires its host
    when a call fails; retiring one host cannot drop pending writes
    belonging to another design alive in the same domain (an eval
    grid's cached host, or a later cell's). *)

type reuse
(** The end-of-elaboration snapshot: the owned signals' values. *)

val prepare_reuse : t -> reuse
(** Take the snapshot. Call once, after {!create} and every {!adopt}, and
    before the first simulated cycle. *)

val reset : ?sched:Kernel.sched -> t -> reuse -> unit
(** Rewind to the {!reuse} snapshot, optionally re-targeting the scheduler.
    The kernel is left unsealed, so the next cycle seals again — under
    [`Compiled] that compiles the tape from the restored values, exactly
    as a fresh build does. *)
