(** The §4.2 protocol watchers of an interface: the runtime checker for
    the SIS communication axioms and its observability companion. Both
    read the interface's decoder ({!Sis_if.decoder}) and keep no transfer
    state of their own, so a failure dump and a trace agree on every
    transfer.

    {!attach} registers the ["sis-protocol"] check; violations raise
    [Kernel.Check_failed]. Checks:

    - [RST] quiesces the interface: no [IO_ENABLE] while in reset;
    - a presented write carries a non-zero [FUNC_ID] (id 0 is the read-only
      status register, §4.2.2);
    - [DATA_IN], [DATA_IN_VALID] and [FUNC_ID] remain static while a write
      word awaits [IO_DONE];
    - [FUNC_ID] remains static while a read awaits [DATA_OUT_VALID];
    - [DATA_OUT_VALID] is only asserted together with [IO_DONE] (read
      responses, Fig 4.3);
    - [IO_ENABLE] pulses are single-cycle per request: no new strobe while
      a request is outstanding. *)

open Splice_sim

val attach : Kernel.t -> Sis_if.t -> unit

val instrument : Kernel.t -> Sis_if.t -> func_ids:int list -> unit
(** Record the decoded transfers into the kernel's [Obs.t] from the
    ["sis-metrics"] observer check, which raises nothing and declares no
    sleep, so it runs every tick:

    - counters [sis/transactions] (one per IO_DONE-high cycle: back-to-back
      1-cycle writes keep IO_DONE high, one word per cycle, Fig 4.3),
      [sis/writes], [sis/reads] (presented word requests);
    - the arbiter's grants, which are the same IO_DONE-high ticks:
      [arbiter/grants], [arbiter/grants/<id>] for each of [func_ids] (the
      stubs' ids behind the arbiter), and the [arbiter/wait_cycles]
      histogram of request-strobe→first-grant latencies;
    - when the context carries a flight recorder, one
      [Txn_begin]/[Txn_end] pair per presented request on track
      [sis/write] or [sis/read], the begin's argument the FUNC_ID, the end
      where the decoder closes the transfer (IO_DONE for a write,
      DATA_OUT_VALID for a read).

    No-op on a kernel wired to [Obs.none]. *)
