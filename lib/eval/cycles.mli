(** Fig 9.2 measurement harness: clock cycles per run for every
    implementation and scenario, plus the summary ratios §9.3.1 reports. *)

open Splice_devices

type row = {
  impl : Interpolator.impl;
  per_scenario : (int * int) list;  (** scenario id, cycles *)
  total : int;
}

val interp_key : Interpolator.impl -> Splice_cache.Design_cache.key
(** The design-cache key of one implementation's host: the spec source
    plus the implementation name (two implementations share a source but
    not a bus model, so the tag keeps them distinct). Shared with the E14
    scheduler ablation so the grids replay each other's elaborations. *)

val measure : ?pool:Splice_par.Pool.t -> unit -> row list
(** Runs every implementation on every scenario; also cross-checks each
    result against the golden model and raises [Failure] on mismatch.
    [pool] runs the implementation cells (each with its own host and
    kernel) in parallel; the rows are identical either way. Each
    implementation's elaborated host is replayed across calls through the
    per-domain {!Splice_cache.Design_cache} (a replay is byte-identical to
    a fresh build). The hosts are built on [Obs.none]: {!measure_detailed}
    is the instrumented run. *)

val cycles_of : row list -> Interpolator.impl -> int
(** Total cycles across scenarios. Raises [Not_found]. *)

val digest : row list -> int64
(** Deterministic splitmix64 fold of the rows (implementation names,
    per-scenario cycle counts, in order) — printed by [splice eval
    --digest] and returned by the simulation service's eval requests, so
    daemon-vs-CLI agreement is a string comparison. *)

type breakdown = { calc : int; bus : int; driver : int; idle : int }
(** Per-layer cycle budget for one scenario run: stub computation, bus
    transactions in flight, driver issue/stall, and idle cycles. Each
    simulated cycle lands in exactly one bucket
    ({!Splice_driver.Host.attach_cycle_breakdown}), so
    {!breakdown_total} equals the scenario's cycle count. *)

val breakdown_total : breakdown -> int

type detailed_row = {
  row : row;  (** identical to what {!measure} reports *)
  breakdowns : (int * breakdown) list;  (** scenario id, per-layer budget *)
  obs : Splice_obs.Obs.t;
      (** the context that accumulated the whole implementation's metrics
          and whose flight recorder holds its whole run *)
  kstats : Splice_sim.Kernel.stats;
      (** the kernel's counters after the measurement — including the
          build-phase wall times (elaborate/seal/compile ns) the design
          cache amortizes *)
}

val measure_detailed : unit -> detailed_row list
(** {!measure} with observability attached: each implementation runs under
    its own {!Splice_obs.Obs.t} — metrics, a per-cycle layer classifier and
    a flight recorder whose default ring holds the whole run.
    Instrumentation is passive — the embedded [row]s match {!measure}
    exactly. *)

val breakdown_table : detailed_row list -> string
(** Per-implementation × scenario table of the per-layer cycle budgets. *)

val build_phase_table : detailed_row list -> string
(** Per-implementation elaborate/seal/compile wall times
    ({!Splice_sim.Kernel.stats}) — the costs a design-cache hit skips. *)

val stats_report : detailed_row list -> string
(** {!build_phase_table} followed by the concatenated
    {!Splice_obs.Export.stats_report} of every implementation, labelled by
    implementation name. *)

val chrome_trace : detailed_row list -> Splice_obs.Json.t
(** Chrome trace-event JSON ({!Splice_obs.Export.chrome_trace} over each
    row's recorder): one process per implementation, one thread per
    transaction track ([bus/<name>], [sis/write], [sis/read],
    [driver/<func>]). *)

val chrome_trace_string : detailed_row list -> string

type summary = {
  splice_plb_vs_naive : float;  (** paper: ≈ 0.75 (25 % faster) *)
  splice_fcb_vs_naive : float;  (** paper: ≈ 0.57 (43 % faster) *)
  splice_fcb_vs_optimized : float;  (** paper: ≈ 1.13 (13 % slower) *)
  dma_vs_simple : float;  (** paper: 0.96–0.99 (1–4 % faster) *)
}

val summarize : row list -> summary
val fig_9_2_table : row list -> string
val pp_summary : Format.formatter -> summary -> unit
