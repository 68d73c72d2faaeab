(** Ablation experiments for the design decisions DESIGN.md calls out
    (E4/E5/E8/E9). Each returns structured data plus a printable table. *)

(** E4 — packing (§3.1.3): moving [n] 8-bit chars over a 32-bit bus with and
    without the ['+'] extension. The thesis's example: 4 chars packed into
    one word is a 75 % word-count reduction. *)
module Packing : sig
  type point = {
    chars : int;
    words_unpacked : int;
    words_packed : int;
    cycles_unpacked : int;
    cycles_packed : int;
  }

  val run : ?sizes:int list -> unit -> point list
  val table : point list -> string
end

(** E5 — DMA crossover (§3.1.5 / §9.2.1): PLB transfer of [n] words via
    programmed I/O vs DMA. The DMA engine costs 4 programming transactions,
    so it only pays off beyond a handful of words. *)
module Dma_crossover : sig
  type point = { words : int; pio_cycles : int; dma_cycles : int }

  val run : ?sizes:int list -> unit -> point list
  val crossover : point list -> int option
  (** Smallest word count where DMA wins. *)

  val table : point list -> string
end

(** E8 — arbitration scaling (§5.2): the same call issued on peripherals
    carrying 1..k functions behind one arbiter. The thesis argues the shared
    mux adds no bottleneck; cycles should be flat in k. *)
module Arbitration : sig
  type point = { functions : int; cycles : int }

  val run : ?pool:Splice_par.Pool.t -> ?max_functions:int -> unit -> point list
  (** The k cells are independent hosts — [pool] runs them in parallel
      with identical results. *)

  val table : point list -> string
end

(** E14 — comb scheduling (the simulator itself): the same workloads run on
    the legacy sweep-until-quiescent kernel, the event-driven dirty-set
    kernel, and the compiled op-tape. Cycle counts must be identical — the
    scheduler is an implementation detail of the simulator, not of the
    modelled hardware — while the number of comb-callback evaluations
    drops, and the drop grows with the number of functions sharing the
    arbiter (the sweep re-evaluates every stub on every delta pass; the
    event kernel only the selected one; the tape additionally levelizes,
    so fewer delta passes reach the same fixpoint). *)
module Scheduler : sig
  type point = {
    label : string;
    cycles_sweep : int;
    cycles_event : int;
    cycles_compiled : int;
    evals_sweep : int;
    evals_event : int;
    evals_compiled : int;
  }

  val agree : point -> bool
  (** All three schedulers produced the same cycle count. *)

  val saving : point -> float
  (** Percentage of comb evaluations the event scheduler avoided (vs
      sweep). *)

  val saving_compiled : point -> float
  (** Percentage of comb evaluations the compiled op-tape avoided (vs
      sweep). *)

  val interp_point : Splice_devices.Interpolator.impl -> point
  (** The Fig 9.2 workload (all scenarios) on one implementation. The
      scheduler is not part of the design-cache key, so one elaboration
      serves all three measurements. *)

  val arbitration_point : int -> point
  (** The E8 workload with [k] functions behind the arbiter. *)

  val run :
    ?pool:Splice_par.Pool.t -> ?max_functions:int -> unit -> point list
  (** Every Fig 9.2 implementation plus the E8 sweep up to
      [max_functions]; [pool] runs the cells in parallel with identical
      results. Each cell's elaboration is replayed across its three
      scheduler runs through the per-domain design cache. *)

  val table : point list -> string
end

(** E11 — interrupt vs. polling synchronisation (§10.2): an APB call whose
    calculation takes [calc] cycles, synchronised by CALC_DONE polling vs the
    completion interrupt. Polling costs one status-read transaction per poll;
    the interrupt costs exactly one (the acknowledge). *)
module Interrupts : sig
  type point = {
    calc_cycles : int;
    poll_cycles : int;
    poll_reads : int;
    irq_cycles : int;
    irq_reads : int;
  }

  val run : ?calcs:int list -> unit -> point list
  val table : point list -> string
end

(** E12 — consolidation (§5.2): k functions multiplexed behind one Splice
    arbiter vs k single-function peripherals each with its own bus adapter.
    Cycles are identical (one master owns the bus either way — E8 shows the
    mux is free); the win is area: one adapter instead of k. *)
module Consolidation : sig
  type point = {
    functions : int;
    consolidated_slices : int;
    separate_slices : int;
  }

  val run : ?max_functions:int -> unit -> point list
  val table : point list -> string
end

(** E9 — burst ablation (§3.2.2): FCB array transfers with
    [%burst_support] on (double/quad macros) vs off (singles). *)
module Burst : sig
  type point = { words : int; burst_cycles : int; single_cycles : int }

  val run : ?sizes:int list -> unit -> point list
  val table : point list -> string
end

(** E17 — coverage-guided fuzzing: the differential sweep with the merged
    protocol-coverage map feeding {!Splice_check.Diff}'s seed scheduler
    (candidate screening against open holes) vs the same sweep with uniform
    random seeds. Same budget, same bin universe; guided should dominate
    the closure trajectory. *)
module Coverage : sig
  type point = {
    iterations : int;
    guided_hit : int;  (** bins hit by the guided sweep at this budget *)
    random_hit : int;
    total : int;
  }

  val run : ?seed:int -> ?count:int -> ?buses:string list -> unit -> point list
  val guided_wins : point list -> bool
  (** Guided strictly ahead at the full budget. *)

  val table : point list -> string
end

(** E18 — clock-domain-crossing ratio sweep: the same 8-word AXI4-Lite
    workload crossing the Gray-coded FIFO bridge at every (ACLK:PCLK ratio,
    FIFO depth) cell of the design grid, under all three schedulers. Cycle
    cost grows with the ratio's slow-side period (each crossing pays two
    destination-domain edges of synchroniser latency, and the strictly
    synchronous PCLK engine serializes the words); depth only moves the
    backpressure point, so rows differing only in depth should match —
    and every scheduler must agree on every cell, the multi-clock
    extension of the E14 invariant. *)
module Cdc_sweep : sig
  type point = {
    ratio : int * int;  (** ACLK:PCLK frequency ratio (reduced) *)
    depth : int;  (** command/response FIFO depth *)
    cycles : int;  (** base-grid cycles for the fixed call (event sched) *)
    aclk_edges : int;
    pclk_edges : int;
    agree : bool;  (** all three schedulers returned this cycle count *)
  }

  val run :
    ?pool:Splice_par.Pool.t ->
    ?ratios:(int * int) list ->
    ?depths:int list ->
    unit ->
    point list
  (** Ratio and depth are design-cache key fields, so each grid cell
      elaborates once and its other two scheduler runs replay the
      snapshot. *)

  val all_agree : point list -> bool
  val table : point list -> string
end
