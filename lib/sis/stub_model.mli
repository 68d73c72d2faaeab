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
      last output word is read (§5.3.1).

    Clocking (§4.2): a peripheral's stubs share one interface decoded by
    [FUNC_ID], so a stub acts on a clock edge only in reset, while
    [FUNC_ID] selects it, or while it runs its calculation states. The
    stubs of one peripheral are clocked by a single process ({!bank}) that
    reads [RST] and [FUNC_ID] once per edge and steps only those stubs;
    for every other stub a step would change nothing. The calculation
    states end on a deadline edge, and the bank sleeps
    ({!Splice_sim.Sleep}) until the first one ends or a line it reads
    changes, unless the selected stub holds a write or read pending.

    The same bank is the stubs' one combinational process. A stub that
    [FUNC_ID] does not select drives zeros (§5.2: the arbiter muxes only
    the selected stub's outputs), so an evaluation of the bank drives
    only the stub selected now and the one selected at its previous
    evaluation; the first evaluation after a build or reset drives
    every stub. *)

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

val bank : t list -> Component.t option
(** The one component of a peripheral's stubs, [None] for no stubs. Its
    [comb] drives the stubs' ports, its [seq] is the clocked process of
    the whole bank, and its [reset] resets every stub. Both callbacks take
    the stubs in the order given. Raises [Invalid_argument] when the
    stubs do not share one {!Sis_if.t}. *)

val component : t -> Component.t
(** The component built by {!bank}, shared by every stub of the bank
    (before {!bank}, a placeholder that no kernel runs). *)

val ports : t -> ports
val func_id : t -> int
(** The instance's assigned identifier ([func.func_id + instance]). *)

val state : t -> state

val calculating : t -> bool
(** [state t = Calc], without building a [state]. *)

val completions : t -> int
(** How many full input→calc→output rounds have completed. *)

(** {1 Test-only}

    For tests that check the bank's skips: a skipped stub must be one whose
    own clocked step changes nothing, and after every settle each stub's
    ports must hold its own {!outputs}. *)

val outputs : t -> Splice_bits.Bits.t * bool * bool
(** What the stub's ports should hold now: the word, [DATA_OUT_VALID] and
    [IO_DONE]. All three are zero unless [FUNC_ID] selects the stub. *)

val seq : t -> unit
(** The per-stub clocked step the bank runs (with its state
    announcement). Test-only: stepping a stub outside the kernel's seq
    phase, or twice on one edge, breaks the model. *)

val clocked_state : t -> string
(** Test-only: a rendering of every part of the state {!seq} may change —
    the phase with its words and deadline, the received inputs, the
    pending flags and the completion count. *)
