(** The Scan Eagle UAV linear interpolator of Ch 9.

    The device approximates continuous flight-control data from time-valued
    samples (§9.1): given sample times (set 1), query times (set 2) and
    sample values (set 3), it piecewise-linearly interpolates the control
    value at each query time and returns the (wrapped 32-bit) sum. The
    calculation runs in a fixed number of cycles regardless of input, as the
    thesis requires for reproducible measurements (§9.1 point 2).

    Five interface implementations are provided (§9.2.1): two hand-coded
    baselines and three Splice-generated variants. All five expose the same
    user-logic function and produce identical results; only interface
    traffic differs. *)

open Splice_driver
open Splice_syntax

type impl =
  | Simple_plb_handcoded  (** naïve hand-coded PLB interface *)
  | Optimized_fcb_handcoded  (** hand-tuned FCB interface *)
  | Splice_plb_simple  (** generated, single-word PLB transfers *)
  | Splice_fcb  (** generated, double/quad FCB bursts *)
  | Splice_plb_dma  (** generated, PLB with per-set DMA transfers *)

val all_impls : impl list
val impl_name : impl -> string

val calc_cycles : int
(** Fixed calculation latency, identical across implementations. *)

val source_for : impl -> string
(** The canonical spec source text of [impl]'s interface — what
    {!spec_for} validates, and what a design cache should key on. *)

val spec_for : impl -> Spec.t
val reference : (string * int64 list) list -> int64
(** Golden software model of the interpolation. *)

val behavior : string -> Splice_sis.Stub_model.behavior

val make_host :
  ?obs:Splice_obs.Obs.t -> ?sched:Splice_sim.Kernel.sched -> impl -> Host.t
(** [obs] is handed to {!Host.create}, so one context collects metrics and
    flight-recorder events for the whole implementation under test.
    [sched] selects the kernel's comb scheduler (E14 compares the default
    event-driven scheduler against the legacy [`Sweep]). *)

val run : Host.t -> Interp_scenarios.t -> int64 * int
(** One complete driver invocation for a scenario: (result, cycles). *)

val make_host_on_bus : string -> Host.t
(** Supplementary (beyond the paper's five implementations): the same
    Splice-generated interpolator targeted at any registered bus, burst
    enabled where the bus provides it. *)

val resource_usage : impl -> Splice_resources.Model.usage
(** Fig 9.3 estimate, including the (identical) calculation logic. *)
