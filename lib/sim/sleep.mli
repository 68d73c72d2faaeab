(** The sleep state of a clocked process: a component's [seq] or a
    protocol check.

    A process may declare, from its own body, that running it again
    changes nothing until an edge of its clock domain ({!sleep_until}) or
    until it is woken ({!sleep}): by a change of one of its wake signals
    (given at {!create}) or by another model calling {!wake}; a check is
    also woken by any signal change ({!Kernel.add_check}). Under the
    event scheduler on a kernel without observability
    ([Splice_obs.Obs.none]) the kernel calls only awake processes, and
    when every process sleeps after a tick that changed nothing it jumps
    to the earliest deadline (see {!Kernel.run}). Every other kernel calls
    every process on every edge of its domain and ignores the
    declarations, so a process must behave the same whether or not it is
    called while it sleeps: countdowns are kept as deadline edges
    ({!now} plus the count), not decremented per call.

    A process that declares nothing is always awake. A declaration lasts
    until the process next runs; a process that runs and declares nothing
    is awake from then on. Declaring too short a sleep costs a call;
    declaring too long a one, or leaving out a wake signal, is a contract
    breach the sweep scheduler (which ignores sleep) exposes as a cycle or
    output difference. *)

type clock = { mutable edge : int }
(** A clock domain's edge counter, shared by the kernel with the
    processes registered in the domain: the index of the edge in flight
    while a tick runs, of the next edge between ticks. *)

type t = private {
  wake_on : Signal.t list;
  mutable until : int;
      (** the first edge of its domain the process must run on; [0] is
          awake, [max_int] asleep until woken *)
  mutable clock : clock;  (** kernel-owned: its domain's edge counter *)
  mutable honoured : bool;
      (** kernel-owned: the kernel that last sealed the process honours
          its declarations *)
  mutable gen : int;
      (** kernel-owned: generation id of the kernel whose wake listeners
          are registered on [wake_on] (0 = none) *)
}

val create : ?wake_on:Signal.t list -> unit -> t
(** A process that is awake, and woken by a change of any of [wake_on]
    (default none). *)

val now : t -> int
(** The index of the current edge of the process's domain: the edge in
    flight inside a tick, the next edge between ticks. *)

val sleep_until : t -> int -> unit
(** [sleep_until s e]: running the process before edge [e] changes
    nothing, unless a wake signal changes or {!wake} is called. *)

val sleep : t -> unit
(** Running the process changes nothing until a wake signal changes or
    {!wake} is called. *)

val wake : t -> unit
(** Run the process on its next edge — from the tick in flight on if its
    turn in the tick is still to come. For models that change state the
    sleeper waits on, and for testbench code that changes it from
    outside a tick. *)

val awake : t -> bool
(** Whether the process runs on the current edge. *)

val honoured : t -> bool
(** Whether the kernel honours the declarations: a process whose sleep
    takes work to work out skips that work when it would be ignored. *)

(** {1 Kernel-owned} *)

val attach : t -> clock -> unit
(** Point the process at its domain's edge counter (on registration). *)

val seal : t -> gen:int -> honoured:bool -> unit
(** Record whether the sealing kernel, of generation [gen], honours the
    declarations; when it does, register the wake listeners, once per
    kernel (a listener of an earlier kernel turns into a no-op). *)
