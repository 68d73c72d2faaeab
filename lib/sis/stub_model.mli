(** Executable semantics of a generated user-logic stub (§5.3).

    A stub is the ICOB + SMB pair Splice emits per function: input states (one
    per parameter, consuming the planned number of bus words), calculation
    states (filled in by the user — here an OCaml callback), and an output
    state that serves read requests and manages [CALC_DONE]. This model is
    what the generated VHDL of [Codegen.Stubgen] *does*; simulating it gives
    the cycle-accurate behaviour of a Splice peripheral without interpreting
    VHDL text.

    Protocol behaviour (§4.2, both SIS variants):
    - a write word is consumed when [IO_ENABLE && DATA_IN_VALID] with a
      matching [FUNC_ID]; [IO_DONE] is raised combinationally the same cycle
      (supporting the 1-cycle back-to-back writes of Fig 4.3);
    - a read request ([IO_ENABLE && !DATA_IN_VALID]) is served combinationally
      when output is ready, else latched and served when calculation finishes
      (the "Delayed Read" of Fig 4.3) — strictly synchronous adapters avoid
      the delay by polling [CALC_DONE] first (§4.2.2);
    - [CALC_DONE] rises when the output state is entered and holds until the
      last output word is read (§5.3.1). *)

open Splice_sim
open Splice_syntax

(** The per-function output ports muxed by the arbiter (Fig 4.2
    "Per-Function" signals). *)
type ports = {
  data_out : Signal.t;
  data_out_valid : Signal.t;
  io_done : Signal.t;
  calc_done : Signal.t;  (** 1 bit *)
}

val create_ports : ?prefix:string -> bus_width:int -> unit -> ports

(** User-supplied calculation logic: element values in, element values out
    (the stub handles all packing/splitting/word marshalling). [calc_cycles]
    models the latency of the user's calculation states. [write_back]
    produces updated values for pass-by-reference parameters (§10.2): any
    by-ref parameter missing from its result keeps its input values. *)
type behavior = {
  calc_cycles : (string * int64 list) list -> int;
  compute : (string * int64 list) list -> int64 list;
  write_back : (string * int64 list) list -> (string * int64 list) list;
}

val behavior :
  ?cycles:int ->
  ?write_back:((string * int64 list) list -> (string * int64 list) list) ->
  ((string * int64 list) list -> int64 list) ->
  behavior
(** Fixed-latency behaviour (default 1 cycle, no write-backs). *)

val null_behavior : behavior
(** Zero-cycle, empty-output behaviour for pure-sink functions. *)

type state = Input of int | Calc | Output
(** Exposed for tests: which ICOB state group the stub is in. *)

type t

val make :
  spec:Spec.t ->
  func:Spec.func ->
  instance:int ->
  sis:Sis_if.t ->
  ports:ports ->
  behavior:behavior ->
  t

val component : t -> Component.t
val ports : t -> ports
val func_id : t -> int
(** The instance's assigned identifier ([func.func_id + instance]). *)

val state : t -> state

val calculating : t -> bool
(** [state t = Calc], without building a [state]. *)

val completions : t -> int
(** How many full input→calc→output rounds have completed. *)
