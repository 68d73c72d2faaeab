(** Differential conformance executor.

    The thesis's central claim (Ch 4–5, Fig 9.2) is that one interface
    declaration behaves identically on every supported bus. This module
    turns that claim into an executable check: each random specification and
    its random traffic (from {!Specgen}) runs on {e every} bus in the
    matrix, under {e all three} kernel schedulers (event-driven, sweep, and
    the compiled op-tape), with the SIS monitor and the per-bus
    {!Bus_monitor} attached — asserting

    - golden-model data equality (the digest round-trip of
      {!Specgen.expected_output});
    - no protocol-monitor violation on any bus;
    - the E14 scheduler invariant: every scheduler in the list agrees on
      the cycle count of every call — this is the gate that fails a run
      (and CI) when the compiled tape disagrees with the event oracle on
      any cell.

    On failure the offending spec is shrunk and packaged with the exact
    [splice fuzz] command that reproduces it. *)

open Splice_sim

type config = {
  seed : int;
  count : int;  (** iterations (one random spec + traffic each) *)
  buses : string list;  (** [[]] = every bus in {!Splice_buses.Registry} *)
  scheds : Kernel.sched list;
  max_cycles : int;  (** per-call watchdog *)
  cover : bool;
      (** collect a {!Splice_cover} functional-coverage map: per-bus
          protocol groups attached to every run's kernel, merged across
          cells in canonical order — byte-identical at any [-j] *)
  guide : bool;
      (** coverage-guided seed scheduling (needs [cover]): instead of
          taking iteration [i]'s canonical seed, screen 8 derived seeds
          per iteration and run the one whose generated spec's
          {!Specgen.features} best target the aggregate map's open bins.
          The hole set refreshes every 10 iterations (a guidance batch),
          independent of the pool's chunking, so guided runs are
          [-j]-invariant. The winner's seed is what failures report, so
          [splice fuzz --seed S --count 1] reproduces a guided failure
          exactly like a random one. *)
  ratio : (int * int) option;
      (** pin the ACLK:PCLK clock ratio of CDC buses (axi) instead of
          letting each iteration draw one — the [--clock-ratio] flag *)
  depth : int option;
      (** pin the CDC FIFO depth (power of two) — the [--fifo-depth] flag *)
  cache : bool;
      (** cell-local replay: each (spec, bus) cell elaborates one host,
          under its first scheduler, and every later scheduler replays it
          ({!Splice_driver.Host.reset} rewinds it to its
          end-of-elaboration snapshot). The host dies with its cell. Off,
          every scheduler run builds afresh; every report field except the
          hit/miss counters is byte-identical either way. *)
}

val default_config : config
(** seed 0, count 50, all buses, all three schedulers, 20_000-cycle
    watchdog; coverage off, guidance off; cell-local replay on. *)

(** {1 Option parsers}

    The checks behind [splice fuzz]'s options and the service's fuzz
    requests, so both reject the same values with the same one-line
    message. *)

val scheds_of_string : string -> (Kernel.sched list, string) result
(** [all] (event, sweep, compiled), [both] (event, sweep), [event],
    [sweep] or [compiled]. *)

val ratio_of_string : string -> (int * int, string) result
(** An [A:B] clock ratio, both terms [>= 1]. *)

val check_count : int -> (int, string) result
(** At least one iteration. *)

val check_depth : int -> (int, string) result
(** A CDC FIFO depth: a power of two in 2..64. *)

type failure = {
  f_iteration : int;
  f_seed : int;  (** pass as [--seed] with [--count 1] to reproduce *)
  f_bus : string;
  f_sched : Kernel.sched;
  f_func : string option;
  f_message : string;
  f_spec : Specgen.gspec;  (** already shrunk *)
  f_ratio : int * int;
      (** the (shrunk) clock ratio the failure reproduces at — echoed in
          {!repro_command} as [--clock-ratio] on CDC buses *)
  f_depth : int;  (** the (shrunk) CDC FIFO depth ([--fifo-depth]) *)
  f_dump : string option;
      (** flight-recorder dump (JSON, see {!Splice_obs.Recorder.dump}) of
          the {e shrunk} failing run — feed it to [splice trace] for
          post-mortem analysis. Sweep runs are uninstrumented; after
          shrinking, the final failing cell is re-run once under the
          failing scheduler on a fresh instrumented host (no replay, no
          coverage map), and its recorder is serialized when
          the same call fails again. [None] when the failure is an E14
          cycle-count mismatch (every run completed) or the spec does not
          validate. Deterministic for a given seed at any worker count,
          but {e not} folded into [r_digest]. *)
}

type report = {
  r_iterations : int;  (** iterations completed (including any failing one) *)
  r_calls : int;  (** total (call × bus × scheduler) executions checked *)
  r_buses : string list;  (** the matrix actually exercised *)
  r_failure : failure option;  (** first failure, after shrinking *)
  r_digest : int64;
      (** deterministic fold of every per-call cycle count observed (and
          the failure, if any), in canonical (iteration, bus) order —
          byte-identical at every [-j] for the same config *)
  r_cover : Splice_cover.Cover.t option;
      (** the merged coverage map when [config.cover]; its
          {!Splice_cover.Cover.to_string} is byte-identical at every
          [-j] (canonical-order merge, failure-prefix discipline) *)
  r_trajectory : (int * int * int) list;
      (** coverage closure per batch: (iterations completed, bins hit,
          bins total), one sample per guidance batch of 10 iterations *)
  r_cache_hits : int;
  r_cache_misses : int;
      (** cell-local reuse, counted: hits are replays, misses are builds,
          summed over the cells up to and including a failing one. A
          deterministic function of the config, equal at every [-j]: a
          clean sweep has [cells] misses and [cells × (|scheds| − 1)]
          hits. Both 0 with [cache = false]. Kept out of [r_digest],
          which predates them. *)
  r_build_ns : int;
      (** wall nanoseconds the grid cells spent acquiring hosts —
          elaboration on a build, the instance-reset rewind on a replay.
          Wall clock (machine- and scheduling-dependent), never part of
          [r_digest]; the simulation service reports it as each fuzz
          request's [elaborate] span. *)
  r_sim_ns : int;
      (** wall nanoseconds the grid cells spent executing calls — the
          [simulate] span of a service request. *)
}

val run : ?log:(string -> unit) -> ?pool:Splice_par.Pool.t -> config -> report
(** Stops at the first failure (in canonical (iteration, bus) order — the
    same cell the sequential sweep would report). [log] receives one
    progress line per iteration. [pool] fans the independent (spec, bus)
    cells out over its domains; every field of the report, the shrunk
    counterexample included, is bit-identical with and without a pool. *)

val iteration_seed : int -> int -> int
(** [iteration_seed seed i]: the derived per-task seed of iteration [i]
    (splitmix64 seed-splitting, {!Splice_par.Splitmix.split_seed});
    [iteration_seed s 0 = s], so a reported seed reproduces with
    [--count 1]. *)

val sched_name : Kernel.sched -> string
val repro_command : failure -> string
val pp_failure : Format.formatter -> failure -> unit
