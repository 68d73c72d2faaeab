(** Reusable specification and traffic fuzzer.

    Promoted out of [test/test_properties.ml] so tests, the benchmarks and
    the [splice fuzz] CLI all draw random specifications, random traffic and
    the golden digest model from one place. Everything is driven by an
    explicit integer seed through a deterministic splitmix64 {!Rng}, so any
    counterexample is reproducible from its seed alone — no hidden
    [Random.self_init] state. *)

open Splice_syntax

(** Deterministic splitmix64 generator — {!Splice_par.Splitmix},
    re-exported under its historical name (it was promoted out of this
    module so the domain pool's seed-splitting and the fuzzer share one
    stream-compatible implementation). Same seed, same stream, on every
    platform — the property QCheck's [Random.State] does not give us. *)
module Rng = Splice_par.Splitmix

(** The generator's view of a specification: close to the surface syntax, so
    shrunk counterexamples render as something a user could have written. *)
type gparam = {
  g_ty : string;
  g_ptr_count : int option;  (** [Some n] = pointer with explicit count [n] *)
  g_packed : bool;
  g_by_ref : bool;
  g_dma : bool;  (** '^' — rendered only on buses whose caps support DMA *)
}

type gfunc = {
  g_name : string;
  g_params : gparam list;
  g_ret : [ `Void | `Nowait | `Scalar of string ];
  g_instances : int;
}

type gspec = {
  g_bus : string;
  g_funcs : gfunc list;
  g_packing : bool;
  g_burst : bool;
      (** %burst_support — rendered only on buses whose caps support it *)
  g_ratio : int * int;
      (** ACLK:PCLK clock ratio for CDC buses (axi) — a simulation
          parameter, not declaration syntax: {!render} ignores it, the
          executor passes it to [Host.create ~cdc] *)
  g_depth : int;  (** CDC command/response FIFO depth (power of two) *)
}

val spec : ?buses:string list -> Rng.t -> gspec
(** A random specification targeting one of [buses] (default: every bus in
    {!Splice_buses.Registry.names}). Always at least one function. *)

val with_bus : gspec -> string -> gspec
(** Retarget a generated spec at another bus — the differential matrix runs
    the {e same} declaration on every backend (the thesis's Fig 9.2 claim). *)

val render : gspec -> string
(** Ch 3 surface syntax for the spec (parseable). *)

val validate : gspec -> (Spec.t, string) result
(** Render then run the full front end against the live bus registry. *)

val shrink : gspec -> gspec list
(** Structurally smaller candidates (fewer functions, fewer parameters,
    scalarised pointers, fewer instances), largest reductions first. *)

val pp : Format.formatter -> gspec -> unit
(** The rendered source, for counterexample reports. *)

(** {1 Shape features}

    A cheap static distillation of a generated spec — no rendering, no
    validation — used by coverage-guided fuzzing to score candidate seeds
    against the open holes of a coverage map (the scorer only needs
    rankings monotone in transfer size and concurrency, not exact plans). *)

type features = {
  ft_funcs : int;
  ft_max_instances : int;
  ft_max_write_words : int;  (** widest input marshalling of any function *)
  ft_max_read_words : int;  (** widest result collection (by-ref + return) *)
  ft_has_by_ref : bool;
  ft_has_nowait : bool;
  ft_has_burst : bool;  (** burst-capable shape (where the bus allows it) *)
  ft_has_dma : bool;  (** at least one '^' DMA parameter *)
  ft_write_lens : int list;
      (** distinct per-function input-marshalling word counts, sorted *)
  ft_read_lens : int list;
      (** distinct per-function result word counts (by-ref + return) *)
}

val features : gspec -> features

(** {1 Random traffic + golden model} *)

type call = {
  c_func : string;
  c_instance : int;
  c_args : (string * int64 list) list;
}

type traffic = { t_calc_cycles : int; t_calls : call list }

val traffic : Rng.t -> Spec.t -> traffic
(** One random call per function (random instance, random argument
    elements). Deterministic in (rng state, spec). *)

val digest : (string * int64 list) list -> int64
(** Order- and name-sensitive fold of a stub's inputs; any marshalling slip
    (dropped word, swapped parameter, missed sign extension) changes it. *)

val behavior : calc_cycles:int -> string -> Splice_sis.Stub_model.behavior
(** The digest-echo behaviour used by every fuzz run: each function returns
    [digest inputs] after [calc_cycles] calculation cycles. *)

val expected_output : Spec.func -> args:(string * int64 list) list -> int64 list
(** What {!behavior} must produce through the full marshalling path: the
    digest of the sign-extended inputs, masked (and re-extended) to the
    declared output type. [[]] for [void]/[nowait] functions. *)
