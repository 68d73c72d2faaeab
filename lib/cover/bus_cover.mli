(** Auto-derived protocol coverage groups for the registered buses.

    The cycle-level points read the interface's protocol decoder
    ({!Splice_sis.Sis_if.decoder}), as the monitors, metrics and recorder
    do: a covered bin is a scenario the monitors vetted, and the [phase]
    bins [write + read] equal the [sis/writes + sis/reads] counters. Bin
    sets are derived from [Bus_caps.t] structure — burst-length log ranges
    from [max_burst_words]/[dma_max_bytes], DMA direction bins only where
    [supports_dma], write-side wait bins only where [pseudo_async]
    (strictly synchronous buses may not stall writes, per the monitors).

    One group per bus, named ["bus/<name>"], with points:
    - [phase]: multi-hot aspect bins — reset, write, read, ack_w, ack_r,
      wait_r, idle (+ wait_w when pseudo-asynchronous), sampled once per
      active aspect per settled cycle;
    - [phase_seq]: transition bins over the cycle's {e primary} phase
      (priority reset > write > read > ack_w > ack_r > waits > idle);
    - [grant]: arbiter grant patterns on IO_ENABLE — status-register
      grants, first data grant, repeat to the same FUNC_ID, switch to a
      new one;
    - [wait_r] (+ [wait_w]): per-word wait-state count ranges;
    - [burst], [dir], [dir_x_burst]: transaction-level points sampled by
      the bus adapter engine, which gets the map from the host that
      elaborates it ([Host.create ~cover] declares the group, builds the
      bus with the map, then runs {!attach}). *)

open Splice_syntax

val group_name : string -> string
(** ["bus/<name>"]. *)

val declare : Cover.t -> bus:string -> caps:Bus_caps.t option -> unit
(** Create the bus's group and every point (idempotent). [caps = None]
    falls back to a generic moderate shape (8-word bursts, no DMA,
    pseudo-asynchronous). *)

val attach :
  Cover.t -> bus:string -> caps:Bus_caps.t option ->
  Splice_sim.Kernel.t -> Splice_sis.Sis_if.t -> unit
(** Declare (if needed) and register cycle-level sampling — phase
    aspects, phase sequence, grants, wait-state counts — of the kernel's
    settled view as the ["<bus>-coverage"] observer check, once per edge
    of {!Splice_sis.Sis_if.domain}. The sampler keeps only the previous
    phase, so one attachment per (kernel, run). *)

(** Transaction-level points, resolved once at adapter-engine creation
    and sampled at request start — the interning discipline that keeps
    the engine's hot path free of lookups. *)
type txn

val find_txn : Cover.t -> bus:string -> txn option
(** [None] until {!declare} has run for the bus — an engine created with
    no coverage map (or before declaration) samples nothing. *)

val sample_txn :
  txn ->
  func_id:int ->
  dir:[ `Write | `Read | `Dma_write | `Dma_read ] ->
  words:int ->
  unit
(** [func_id = 0] additionally hits the grant point's "status" bin:
    status polls never assert IO_ENABLE, so that bin is unreachable from
    the cycle-level sampler. *)

(** {1 AXI native-side points}

    The AXI4-Lite bridge is the one builtin whose native channels live in
    their own clock domain; {!declare} gives its group three extra
    points — [handshake] (per-channel VALID/READY fires, stalls and
    command-FIFO backpressure), [cdc_ratio] / [cdc_depth] (which cell of
    the clock-ratio x FIFO-depth design grid the run exercised) and their
    [ratio_x_depth] cross. The bus model samples them through the map its
    [connect] is given, with the same resolve-once discipline as
    {!txn}. *)

type axi

val find_axi : Cover.t -> axi option
(** [None] until {!declare} has run for ["axi"]. *)

val sample_axi_fire :
  axi ->
  [ `Aw | `W | `Ar | `R | `B | `Aw_stall | `Ar_stall | `Bp_w | `Bp_r ] ->
  unit

val sample_axi_cdc : axi -> ratio:int * int -> depth:int -> unit
