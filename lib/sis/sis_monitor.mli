(** Runtime checker for the SIS communication axioms of §4.2.

    Attach to a kernel to have every simulated cycle validated against the
    protocol; violations raise [Kernel.Check_failed]. Checks:

    - [RST] quiesces the interface: no [IO_ENABLE] while in reset;
    - a presented write carries a non-zero [FUNC_ID] (id 0 is the read-only
      status register, §4.2.2);
    - [DATA_IN], [FUNC_ID] remain static while a write word awaits [IO_DONE];
    - [FUNC_ID] remains static while a read is outstanding;
    - [DATA_OUT_VALID] is only asserted together with [IO_DONE] (read
      responses, Fig 4.3);
    - [IO_ENABLE] pulses are single-cycle per request (a second cycle must be
      a new request, i.e. the previous one completed). *)

open Splice_sim

val attach : Kernel.t -> Sis_if.t -> unit

val instrument : Kernel.t -> Sis_if.t -> unit
(** Observability companion to {!attach}, recording into the kernel's
    [Obs.t] from an [on_settle] hook:

    - counters [sis/transactions] (one per IO_DONE-high cycle: back-to-back
      1-cycle writes keep IO_DONE high, one word per cycle, Fig 4.3),
      [sis/writes], [sis/reads] (presented word requests);
    - when the context carries a flight recorder, one
      [Txn_begin]/[Txn_end] pair per SIS word transfer on track
      [sis/write] or [sis/read], the begin's argument the FUNC_ID
      (presentation → IO_DONE for a write, request → DATA_OUT_VALID for
      a read).

    No-op on a kernel wired to [Obs.none]. *)
