(** A simulation component: a named pair of callbacks plus a sensitivity
    declaration.

    [comb] computes combinational outputs from current signal values (run to
    a fixpoint by the kernel before each clock edge); [seq] models the
    clocked process body (runs once per edge; registered updates must go
    through [Signal.set_next]).

    {1 Sensitivity}

    A [comb] callback is supplied together with the complete set of signals
    it reads, so a combinational process without a sensitivity list does
    not type-check. The event-driven and compiled schedulers only
    re-evaluate a component when one of its declared reads changed, or when
    the component announced a state change with {!rearm} — so the
    declaration is a contract: [comb] must be a deterministic function of
    exactly those signals plus internal state whose every comb-visible
    change is announced.

    {1 Announcing state changes}

    A component whose [comb] also reads state that its own [seq] mutates
    (a phase register, a pending flag) calls {!rearm} from that [seq]
    whenever the part of the state [comb] reads changes. The kernel then
    re-evaluates it at the next settle, and only then: there is no
    per-edge re-arm. A change that is not announced is a contract breach
    the sweep scheduler — which evaluates everything on every pass and
    ignores announcements — exposes as an output difference; that is what
    the fuzz sweep's event-vs-sweep comparison checks. *)

type t = {
  name : string;
  comb : unit -> unit;
  reads : Signal.t list;
      (** comb re-runs when any of these signals changes, or after a
          {!rearm} *)
  seq : unit -> unit;
  has_comb : bool;  (** false when no [comb] was supplied (callback is a nop) *)
  has_seq : bool;
      (** false when no [seq] was supplied (callback is a nop): the kernel
          leaves such a component out of its clocked loop *)
  mutable dirty : bool;  (** kernel-owned: queued for (re-)evaluation *)
  mutable reg_gen : int;
      (** kernel-owned: generation id of the kernel this component's fan-out
          listeners belong to (0 = never registered). Stamping per kernel —
          instead of a sticky boolean — lets a component be reused by a
          later kernel: the new kernel re-registers, and the old kernel's
          listeners become no-ops instead of corrupting its dirty counter. *)
  mutable rec_stamp : int;
      (** kernel-owned: flight-recorder stamp validating [rec_id] *)
  mutable rec_id : int;  (** kernel-owned: cached recorder intern id *)
  mutable arm : unit -> unit;
      (** kernel-owned: the action behind {!rearm}, installed by every seal
          for the sealing kernel's scheduler (a nop until then) *)
  reset : unit -> unit;
      (** restore closure-held state to its construction-time value; run
          by [Kernel.reset] when a cached design is replayed *)
  sleep : Sleep.t;  (** the [seq]'s sleep state (see {!Sleep}) *)
}

val make :
  ?comb:Signal.t list * (unit -> unit) ->
  ?seq:(unit -> unit) ->
  ?reset:(unit -> unit) ->
  ?sleep:Sleep.t ->
  string ->
  t
(** [~comb:(reads, f)] pairs the combinational callback with the signals it
    reads. Missing callbacks default to no-ops. A component without [comb]
    is never scheduled by the event kernel or the compiled tape (the sweep
    evaluates every component, this one as a counted no-op); one without
    [seq] is left out of the kernel's clocked loop. [reset] (default
    no-op) must restore every ref and mutable record captured by the
    callbacks to the exact value it held when [make] returned — the
    contract that makes {!Kernel.reset} replay equivalent to a fresh
    build. [sleep] is the handle through which [seq] declares when it may
    be skipped ({!Sleep}); without one the [seq] is always awake. *)

val rearm : t -> unit
(** Announce, from the component's own [seq], that state its [comb] reads
    has changed: the kernel re-evaluates the component at the next settle.
    A nop for components without [comb] and under the sweep scheduler.
    Announcing when nothing comb-visible changed is safe (one wasted
    evaluation); failing to announce a change is not. *)

val name : t -> string
