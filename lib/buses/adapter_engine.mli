(** Generic native-bus-adapter simulation engine.

    Drives the SIS side of a peripheral according to the protocols of §4.2
    while charging bus-specific cycle costs on the native side. Each concrete
    bus (PLB, OPB, FCB, APB, AHB — and the hand-coded baselines of Ch 9)
    instantiates this engine with its own {!config}:

    - [setup_cycles]: arbitration + address phase paid per native transaction
      (a burst moves several words under one setup — that is exactly why
      bursts win, §3.2.2);
    - [write_word_gap] / [read_word_gap]: dead cycles a non-pipelined adapter
      inserts between consecutive words (0 for tight adapters, >0 for the
      naïve hand-coded interface of §9.2.1);
    - [teardown_cycles]: CE/qualifier release after the last word;
    - [strictly_sync]: reads sample the bus exactly one cycle after issue and
      cannot stall (§4.2.2) — an unready peripheral returns garbage, which is
      why strictly synchronous drivers must poll CALC_DONE first;
    - [dma_setup_transactions]: the DMA engine costs this many ordinary bus
      transactions to program before streaming at one word/cycle (the PLB
      needs 4, which is why DMA loses on short transfers, §9.2.1).

    Status reads (func id 0) are served by the adapter itself from the
    CALC_DONE vector without touching the SIS request lines (§4.2.2). *)

open Splice_sim
open Splice_sis

type config = {
  name : string;
  setup_cycles : int;
  write_word_gap : int;
  read_word_gap : int;
  teardown_cycles : int;
  strictly_sync : bool;
  dma_setup_transactions : int;
}

type t

val make :
  ?obs:Splice_obs.Obs.t -> ?cover:Splice_cover.Cover.t -> config ->
  Sis_if.t -> t
(** [obs] (default [Obs.none]) receives per-bus metrics under
    [bus/<name>/…] — transfers, words written/read, wait-states (stub not
    ready), overhead cycles (setup/teardown/word gaps), a burst-length
    histogram — and, when the context carries a flight recorder, one
    [Txn_begin]/[Txn_end] pair per native bus transaction on track
    [bus/<name>]. [cover], when its [bus/<name>] group is already declared
    ({!Splice_cover.Bus_cover.declare}), receives the transaction-level
    coverpoints, resolved here once; otherwise the engine samples
    nothing. {!Bus.connect_with_engine} wires the kernel's own context
    and the build's map through automatically. *)

val component : t -> Component.t
val port : t -> wait_mode:[ `Null | `Poll ] -> max_burst_words:int ->
  supports_dma:bool -> Bus_port.t

val busy : t -> bool
val config : t -> config

val irq_pending : t -> bool
(** Completion-interrupt latch: raised on any CALC_DONE rising edge,
    cleared when a status-register read acknowledges it (§10.2). *)
