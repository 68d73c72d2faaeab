(** Executable semantics of the generated arbitration unit (§5.2).

    The arbiter sits between the native bus adapter and the user-logic stubs:
    it multiplexes the shared [DATA_OUT] / [DATA_OUT_VALID] / [IO_DONE]
    signals from the stub selected by [FUNC_ID], and concatenates every
    instance's [CALC_DONE] bit into the status vector the adapter serves at
    function id 0 (§4.2.2). Broadcast signals need no routing — all stubs
    observe them directly and self-select on [FUNC_ID]. *)

open Splice_sim

val make : stubs:(int * Stub_model.ports) list -> Sis_if.t -> Component.t
(** [stubs] maps each assigned function id (≥ 1) to that instance's ports.
    Raises [Invalid_argument] on duplicate or non-positive ids, and on an
    id whose [CALC_DONE] bit falls outside the vector.

    The arbiter is purely combinational. Its grant metrics
    ([arbiter/grants], [arbiter/grants/<id>], [arbiter/wait_cycles]) are
    read off the interface's decoder by {!Sis_monitor.instrument}. *)
