open Splice_sim
open Splice_syntax
open Splice_buses
open Splice_driver
open Splice_obs

type config = {
  seed : int;
  count : int;
  buses : string list;
  scheds : Kernel.sched list;
  max_cycles : int;
  cover : bool;
  guide : bool;
  ratio : (int * int) option;
  depth : int option;
  cache : bool;
}

let default_config =
  {
    seed = 0;
    count = 50;
    buses = [];
    scheds = [ `Event; `Sweep; `Compiled ];
    max_cycles = 20_000;
    cover = false;
    guide = false;
    ratio = None;
    depth = None;
    cache = true;
  }

type failure = {
  f_iteration : int;
  f_seed : int;
  f_bus : string;
  f_sched : Kernel.sched;
  f_func : string option;
  f_message : string;
  f_spec : Specgen.gspec;
  f_ratio : int * int;
  f_depth : int;
  f_dump : string option;
}

type report = {
  r_iterations : int;
  r_calls : int;
  r_buses : string list;
  r_failure : failure option;
  r_digest : int64;
  r_cover : Splice_cover.Cover.t option;
  r_trajectory : (int * int * int) list;
  r_cache_hits : int;
  r_cache_misses : int;
      (* replays and builds of the cells' hosts (0 and 0 with the cache
         off): a count fixed by the config, but kept out of [r_digest],
         which predates it *)
  r_build_ns : int;
  r_sim_ns : int;
      (* wall time the grid cells spent acquiring hosts (elaboration, or
         a replay's rewind) vs executing calls — the elaborate / simulate
         split a service surfaces as per-request spans. Wall clock, so
         never part of [r_digest]. *)
}

let sched_name = function
  | `Event -> "event"
  | `Sweep -> "sweep"
  | `Compiled -> "compiled"

(* ---- option parsers, shared by the CLI and the service protocol ---- *)

let scheds_of_string = function
  | "all" -> Ok [ `Event; `Sweep; `Compiled ]
  | "both" -> Ok [ `Event; `Sweep ]
  | "event" -> Ok [ `Event ]
  | "sweep" -> Ok [ `Sweep ]
  | "compiled" -> Ok [ `Compiled ]
  | s ->
      Error
        (Printf.sprintf
           "unknown sched %S (want all, both, event, sweep or compiled)" s)

let ratio_of_string s =
  match String.split_on_char ':' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a >= 1 && b >= 1 -> Ok (a, b)
      | _ -> Error (Printf.sprintf "bad clock ratio %S (want A:B, both >= 1)" s))
  | _ -> Error (Printf.sprintf "bad clock ratio %S (want A:B)" s)

let check_count n =
  if n >= 1 then Ok n else Error (Printf.sprintf "bad count %d (want >= 1)" n)

let check_depth d =
  if d >= 2 && d <= 64 && d land (d - 1) = 0 then Ok d
  else Error (Printf.sprintf "bad fifo depth %d (want a power of two in 2..64)" d)

(* Per-iteration seeds come from splitmix64 seed-splitting of the root
   seed: every (spec, bus) task derives all of its randomness from
   [iteration_seed] alone, so the grid is bit-identical at any [-j].
   [iteration_seed s 0 = s] so the repro command (--seed S --count 1)
   regenerates exactly the failing spec and traffic. *)
let iteration_seed = Splice_par.Splitmix.split_seed

(* ---- result digest -------------------------------------------------
   A deterministic fold over everything the sweep observed (per-call
   cycle counts per bus per scheduler, and the failure if any), in
   canonical (iteration, bus) order. Because the fold happens in the
   orchestrator after the parallel map, the digest — like the rest of
   the report — is byte-identical at every worker count. *)

let mix = Splice_par.Splitmix.mix
let mix_string = Splice_par.Splitmix.mix_string

let digest_cell acc ~iteration ~bus runs =
  let acc = mix acc (Int64.of_int iteration) in
  let acc = mix_string acc bus in
  List.fold_left
    (fun acc (s, cs) ->
      let acc = mix_string acc (sched_name s) in
      List.fold_left
        (fun acc (f, c) -> mix (mix_string acc f) (Int64.of_int c))
        acc cs)
    acc runs

let digest_failure acc f =
  let acc = mix acc (Int64.of_int f.f_iteration) in
  let acc = mix_string acc f.f_bus in
  let acc = mix_string acc (sched_name f.f_sched) in
  let acc = mix_string acc (Option.value ~default:"" f.f_func) in
  let acc = mix_string acc f.f_message in
  let acc = mix_string acc (Specgen.render f.f_spec) in
  let ra, rb = f.f_ratio in
  mix
    (mix acc (Int64.of_int ((ra lsl 16) lor rb)))
    (Int64.of_int f.f_depth)

(* traffic is derived from a fixed offset of the iteration seed, not from
   the spec generator's final state — so a shrunk spec keeps deterministic
   traffic without replaying the generation that produced it *)
let traffic_for iseed spec =
  Specgen.traffic (Specgen.Rng.make (iseed lxor 0x5bd1e995)) spec

exception Call_failed of string option * string
(* (function, message) *)

(* A (spec, bus) cell's inputs, derived once from the generated spec and
   its iteration seed: the validated spec, its traffic and the CDC
   dimensions the bus elaborates with. *)
type cell = { spec : Spec.t; tr : Specgen.traffic; cdc : Bus.cdc }

let cell_of ~iseed g bus =
  match Specgen.validate (Specgen.with_bus g bus) with
  | Error e -> Error (Printf.sprintf "spec does not validate on %s: %s" bus e)
  | Ok spec ->
      Ok
        {
          spec;
          tr = traffic_for iseed spec;
          cdc = { Bus.ratio = g.Specgen.g_ratio; depth = g.Specgen.g_depth };
        }

(* Elaborate one cell's host under [sched], wired to [obs], with the
   per-bus protocol monitor (and, when [cover] is given, the coverage
   samplers) attached. *)
let build ~obs ~cover cell bus sched =
  let { spec; tr; cdc } = cell in
  (* one isolated simulation per build: restart the domain-local
     default-name counter so any sigN in a failure message is a function
     of this cell alone, not of pool scheduling *)
  Signal.reset_names ();
  let host =
    Host.create ~obs ~sched ?cover ~cdc spec
      ~behaviors:(Specgen.behavior ~calc_cycles:tr.Specgen.t_calc_cycles)
  in
  (* the monitor joins the host's owned signal set so an instance reset
     restores it along with the design proper *)
  Host.adopt host (fun () ->
      Bus_monitor.attach (Host.kernel host) ~bus (Host.sis host));
  host

(* Run the cell's traffic on [host]. Returns per-call cycle counts (for
   the E14 cross-check), or the first failing call. A failed host is
   retired: an aborted cycle may leave deferred writes queued in the
   domain's signal store, and they must not reach the next host built
   in this domain. *)
let run_calls ~max_cycles cell host =
  let { spec; tr; _ } = cell in
  let fail func msg = raise (Call_failed (func, msg)) in
  match
    List.map
      (fun (c : Specgen.call) ->
        let f =
          match Spec.find_func spec c.Specgen.c_func with
          | Some f -> f
          | None -> fail (Some c.Specgen.c_func) "unknown function"
        in
        let result, cycles =
          try
            Host.call ~instance:c.Specgen.c_instance ~max_cycles host
              ~func:c.Specgen.c_func ~args:c.Specgen.c_args
          with
          | Kernel.Check_failed { cycle; check; message } ->
              fail (Some c.Specgen.c_func)
                (Printf.sprintf "%s violation at cycle %d: %s" check cycle
                   message)
          | Kernel.Timeout { elapsed; waiting_for; _ } ->
              fail (Some c.Specgen.c_func)
                (Printf.sprintf "timeout after %d cycles waiting for %s"
                   elapsed waiting_for)
          | Kernel.Comb_divergence { cycle; iterations } ->
              fail (Some c.Specgen.c_func)
                (Printf.sprintf
                   "combinational divergence at cycle %d (%d delta passes)"
                   cycle iterations)
        in
        if cycles <= 0 then
          fail (Some c.Specgen.c_func) "call consumed no cycles";
        let expected = Specgen.expected_output f ~args:c.Specgen.c_args in
        if result <> expected then
          fail (Some c.Specgen.c_func)
            (Format.asprintf
               "golden-model mismatch: got [%a], expected [%a]"
               Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f "; ")
                         (fun f v -> pp_print_string f (Int64.to_string v)))
               result
               Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f "; ")
                         (fun f v -> pp_print_string f (Int64.to_string v)))
               expected);
        (c.Specgen.c_func, cycles))
      tr.Specgen.t_calls
  with
  | cycles -> Ok cycles
  | exception Call_failed (func, msg) ->
      Host.retire host;
      Error (func, msg)

(* The E14 cross-check: every scheduler's per-call cycle counts must
   equal the first scheduler's. *)
let e14_mismatch = function
  | [] -> None
  | (s0, c0) :: rest ->
      List.find_map
        (fun (s, c) ->
          List.find_map
            (fun ((f0, n0), (f1, n1)) ->
              if f0 = f1 && n0 <> n1 then
                Some
                  ( s,
                    Some f0,
                    Printf.sprintf
                      "E14 scheduler invariant broken: %s took %d cycles \
                       under %s but %d under %s"
                      f0 n0 (sched_name s0) n1 (sched_name s) )
              else None)
            (List.combine c0 c))
        rest

(* What one cell spent: hosts replayed and built (both 0 with the cache
   off), and wall ns acquiring hosts and running calls. *)
type cost = { replays : int; builds : int; build_ns : int; sim_ns : int }

(* One (spec, bus) cell of the matrix: validate and derive traffic once,
   then every scheduler in turn, then the E14 cycle-count cross-check
   between them. With [cache] the cell elaborates one host, under its
   first scheduler, and each later scheduler replays it ([Host.reset]
   re-targets the kernel and rewinds it to the end-of-elaboration
   snapshot); without, every scheduler builds afresh. The replay is
   byte-identical to a fresh build, so nothing but [cost] depends on
   [cache], and nothing outlives the cell. The first failing call ends
   the cell. Sweep runs are built on [Obs.none]: nothing reads a passing
   run's metrics or flight recorder, and a failure's dump comes from an
   instrumented re-run ([dump_of]). *)
let exec_bus ~max_cycles ~iseed ~cover ~cache g bus scheds =
  let replays = ref 0 and builds = ref 0 in
  let build_ns = ref 0 and sim_ns = ref 0 in
  let result =
    match scheds with
    | [] -> Ok []
    | first_sched :: _ -> (
        match cell_of ~iseed g bus with
        | Error msg -> Error (first_sched, None, msg)
        | Ok cell -> (
            let reuse = ref None in
            let acquire sched =
              match !reuse with
              | Some (host, r) ->
                  incr replays;
                  Host.reset ~sched host r;
                  host
              | None ->
                  let host = build ~obs:Obs.none ~cover cell bus sched in
                  if cache then begin
                    incr builds;
                    reuse := Some (host, Host.prepare_reuse host)
                  end;
                  host
            in
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | sched :: rest -> (
                  let t0 = Obs.now_ns () in
                  let host = acquire sched in
                  let t1 = Obs.now_ns () in
                  let r = run_calls ~max_cycles cell host in
                  build_ns := !build_ns + (t1 - t0);
                  sim_ns := !sim_ns + (Obs.now_ns () - t1);
                  match r with
                  | Ok cycles -> go ((sched, cycles) :: acc) rest
                  | Error (func, msg) -> Error (sched, func, msg))
            in
            match go [] scheds with
            | Error _ as e -> e
            | Ok runs -> (
                match e14_mismatch runs with
                | Some e -> Error e
                | None -> Ok runs)))
  in
  ( result,
    {
      replays = !replays;
      builds = !builds;
      build_ns = !build_ns;
      sim_ns = !sim_ns;
    } )

(* The failure dump: re-run the final (shrunk) failing cell under its
   failing scheduler on a fresh, instrumented host — no coverage map, as
   the shrink probes run — and serialize its flight recorder when the
   call fails again. The simulation is deterministic, so the ring ends at
   the same violation the sweep saw, and the metrics snapshot rides
   along. [None] when the re-run does not fail: an E14 mismatch (every
   run completed) or a spec that does not validate. *)
let dump_of ~max_cycles ~iseed g bus sched =
  match cell_of ~iseed g bus with
  | Error _ -> None
  | Ok cell -> (
      let obs = Obs.create () in
      match
        run_calls ~max_cycles cell (build ~obs ~cover:None cell bus sched)
      with
      | Ok _ -> None
      | Error (_, msg) ->
          Option.map
            (fun r ->
              Recorder.dump_string ~context:msg ~metrics:(Obs.metrics obs) r)
            (Obs.recorder obs))

let repro_command f =
  let cdc =
    (* only a CDC bus consumes the pins, so only its repros carry them *)
    if f.f_bus = "axi" then
      Printf.sprintf " --clock-ratio %d:%d --fifo-depth %d" (fst f.f_ratio)
        (snd f.f_ratio) f.f_depth
    else ""
  in
  Printf.sprintf "splice fuzz --seed %d --count 1 --bus %s%s" f.f_seed f.f_bus
    cdc

let pp_failure fmt f =
  Format.fprintf fmt
    "@[<v>FAIL on bus %s (%s scheduler), iteration %d, seed %d%a%a:@,  %s@,@,\
     shrunk specification:@,%a@,reproduce with:@,  %s@]"
    f.f_bus (sched_name f.f_sched) f.f_iteration f.f_seed
    (fun fmt -> function
      | Some fn -> Format.fprintf fmt ", function %s" fn
      | None -> ())
    f.f_func
    (fun fmt f ->
      if f.f_bus = "axi" then
        Format.fprintf fmt ", clock ratio %d:%d, fifo depth %d" (fst f.f_ratio)
          (snd f.f_ratio) f.f_depth)
    f f.f_message Specgen.pp f.f_spec (repro_command f)

(* Greedy structural shrinking: keep taking the first smaller candidate that
   still fails on the same bus, bounded by a predicate-evaluation budget. *)
let shrink_failure ~max_cycles ~iseed ~bus ~scheds ~cache g =
  let budget = ref 200 in
  let fails g' =
    decr budget;
    (* shrinking probes never sample coverage: the map reflects the sweep
       proper, not the post-hoc bisection *)
    match exec_bus ~max_cycles ~iseed ~cover:None ~cache g' bus scheds with
    | Ok _, _ -> None
    | Error e, _ -> Some e
  in
  let rec go g cur =
    if !budget <= 0 then (g, cur)
    else
      match
        List.find_map
          (fun g' -> if !budget <= 0 then None
            else Option.map (fun f -> (g', f)) (fails g'))
          (Specgen.shrink g)
      with
      | Some (g', f) -> go g' f
      | None -> (g, cur)
  in
  go g

(* ---- coverage-guided seed scheduling -------------------------------
   Guidance never touches Specgen's distributions — that would break the
   [--seed S --count 1] repro contract. Instead each guided iteration
   screens [guide_candidates] derived seeds, scores the static shape of
   the spec each one generates against the holes still open in the
   aggregate map, and runs the winner under its own seed. The hole set
   refreshes (and one trajectory sample is recorded) every [guide_batch]
   iterations, independent of the pool's chunking, so guided runs are
   [-j]-invariant. *)

let guide_candidates = 8
let guide_batch = 10

type needs = {
  nd_write_lens : int list;  (* open write-burst lengths, ≤16 words, sorted *)
  nd_read_lens : int list;
  nd_dma : bool;  (* dma_w/dma_r direction bins still open *)
  nd_switch : bool;  (* grant switch/repeat bins still open *)
  nd_wait : bool;  (* wait-state range bins still open *)
}

let needs_of cover =
  let module C = Splice_cover.Cover in
  let nd =
    List.fold_left
      (fun nd g ->
        if not (String.starts_with ~prefix:"bus/" (C.group_name g)) then nd
        else
          let nd =
            match C.find_point g "dir_x_burst" with
            | None -> nd
            | Some p ->
                List.fold_left
                  (fun nd ((dn, _, _), (_, blo, _), count) ->
                    (* bins beyond ~16 words are out of the generator's
                       reach; chasing them would just waste candidates *)
                    if count > 0 || blo > 16 then nd
                    else if dn = "dma_w" || dn = "dma_r" then
                      { nd with nd_dma = true }
                    else if dn = "w" then
                      { nd with nd_write_lens = blo :: nd.nd_write_lens }
                    else { nd with nd_read_lens = blo :: nd.nd_read_lens })
                  nd (C.cross_bins p)
          in
        let nd =
          match C.find_point g "grant" with
          | Some p
            when List.exists
                   (fun (n, c) -> c = 0 && (n = "switch" || n = "repeat"))
                   (C.bins p) ->
              { nd with nd_switch = true }
          | _ -> nd
        in
        (* wait_r only: the user-logic stub acknowledges writes in a
           single cycle by construction, so wait_w's 1..8 bins are
           permanent holes — treating them as needs would bias every
           batch towards by-ref specs for no return *)
        match C.find_point g "wait_r" with
        | Some p
          when List.exists
                 (fun (_, lo, _, c) -> c = 0 && lo >= 1 && lo <= 8)
                 (C.bin_ranges p) ->
            { nd with nd_wait = true }
        | _ -> nd)
      { nd_write_lens = []; nd_read_lens = []; nd_dma = false;
        nd_switch = false; nd_wait = false }
      (Splice_cover.Cover.groups cover)
  in
  {
    nd with
    nd_write_lens = List.sort_uniq compare nd.nd_write_lens;
    nd_read_lens = List.sort_uniq compare nd.nd_read_lens;
  }

(* Per-need bonus contributions of a candidate spec, one slot per need
   family; [score] sums them, the batch scheduler uses the breakdown to
   apply diminishing returns. *)
let contributions nd (ft : Specgen.features) =
  (* exact-length matching: an open burst-length bin is only closed by a
     function whose marshalling is exactly that many words, so candidates
     are scored by how many open lengths they land on — not by raw size *)
  let hits lens open_lens =
    List.length (List.filter (fun l -> List.mem l open_lens) lens)
  in
  [|
    4 * hits ft.Specgen.ft_write_lens nd.nd_write_lens;
    4 * hits ft.Specgen.ft_read_lens nd.nd_read_lens;
    (if (List.exists (fun l -> l >= 2) nd.nd_write_lens
        || List.exists (fun l -> l >= 2) nd.nd_read_lens)
        && ft.Specgen.ft_has_burst
     then 6
     else 0);
    (if nd.nd_dma && ft.Specgen.ft_has_dma then 10 else 0);
    (if nd.nd_switch then
       (if ft.Specgen.ft_funcs > 1 then 8 else 0)
       + if ft.Specgen.ft_max_instances > 1 then 4 else 0
     else 0);
    (if nd.nd_wait && ft.Specgen.ft_has_by_ref then 4 else 0);
  |]

let n_need_families = 6

(* [taken.(i)] counts how many winners of the current batch already
   matched need family [i]; each repeat halves that family's bonus.
   Without the discount every iteration of a batch — which all see the
   same needs snapshot — converges on near-identical spec shapes, and the
   lost diversity costs more bins than the directed picks gain. *)
let score ~taken nd (ft : Specgen.features) =
  let sc = ref 0 in
  Array.iteri
    (fun i v -> sc := !sc + (v / (1 + taken.(i))))
    (contributions nd ft);
  !sc

(* The grid: config.count iterations × the bus matrix, each (spec, bus)
   cell an independent task — its own spec regeneration (cheap,
   deterministic in [iteration_seed]), its own kernels, monitors and
   domain-local signal store. Cells fan out over the pool in chunks;
   after each chunk the orchestrator folds the results in canonical
   (iteration, bus) order, reproducing the sequential report — counts,
   log lines, first failure and digest — byte for byte. With no pool (or
   a 0-worker pool) the map degenerates to [Array.map]: the exact
   sequential path. Shrinking always runs in the orchestrator's domain. *)
let run ?(log = ignore) ?pool config =
  let buses =
    match config.buses with [] -> Registry.names () | buses -> buses
  in
  List.iter
    (fun b ->
      if Registry.find b = None then
        failwith (Printf.sprintf "Diff.run: unknown bus %S" b))
    buses;
  let nbuses = List.length buses in
  let buses_arr = Array.of_list buses in
  let map f arr =
    match pool with
    | None -> Array.map f arr
    | Some p -> Splice_par.Pool.map_ordered p f arr
  in
  (* chunked early exit: big enough to keep every executor busy, small
     enough that a failing sweep does not run all [count] iterations *)
  let chunk_iters =
    match pool with
    | None -> 1
    | Some p ->
        max 1 (((4 * Splice_par.Pool.size p) + nbuses - 1) / nbuses)
  in
  let calls = ref 0 in
  let failure = ref None in
  let iterations = ref 0 in
  let cache_hits = ref 0 in
  let cache_misses = ref 0 in
  let build_ns = ref 0 in
  let sim_ns = ref 0 in
  let digest =
    ref
      (mix
         (mix 0x53504C4943455F44L (* "SPLICE_D" *) (Int64.of_int config.seed))
         (Int64.of_int config.count))
  in
  (* Aggregate coverage map, pre-declared for every bus in the matrix so
     even an early failure reports the full (mostly-zero) bin universe. *)
  let agg =
    if config.cover then begin
      let c = Splice_cover.Cover.create () in
      List.iter
        (fun b ->
          Splice_cover.Bus_cover.declare c ~bus:b
            ~caps:(Registry.lookup_caps b))
        buses;
      Some c
    end
    else None
  in
  let trajectory = ref [] in
  (* Guidance (and the trajectory) works in fixed-size batches of
     iterations, deliberately decoupled from [chunk_iters]: the pool's
     chunking varies with the worker count, the batch boundary must not. *)
  let batch = if config.cover then guide_batch else config.count in
  let seeds_for lo hi =
    match agg with
    | Some c when config.guide ->
        let nd = needs_of c in
        let taken = Array.make n_need_families 0 in
        let out = Array.make (hi - lo) 0 in
        (* explicit loop, not Array.init: [taken] mutates per pick, so the
           selection order must be the iteration order *)
        for k = 0 to hi - lo - 1 do
          let base = (lo + k) * guide_candidates in
          let best = ref (iteration_seed config.seed base) in
          let best_score = ref min_int in
          let best_contrib = ref [||] in
          for j = 0 to guide_candidates - 1 do
            let s = iteration_seed config.seed (base + j) in
            let g = Specgen.spec ~buses (Specgen.Rng.make s) in
            let ft = Specgen.features g in
            let sc = score ~taken nd ft in
            if sc > !best_score then begin
              best := s;
              best_score := sc;
              best_contrib := contributions nd ft
            end
          done;
          Array.iteri
            (fun i v -> if v > 0 then taken.(i) <- taken.(i) + 1)
            !best_contrib;
          out.(k) <- !best
        done;
        out
    | _ -> Array.init (hi - lo) (fun k -> iteration_seed config.seed (lo + k))
  in
  let i = ref 0 in
  while !failure = None && !i < config.count do
    let batch_lo = !i in
    let batch_hi = min config.count (batch_lo + batch) in
    let seeds = seeds_for batch_lo batch_hi in
    let j = ref batch_lo in
    while !failure = None && !j < batch_hi do
      let hi = min batch_hi (!j + chunk_iters) in
      let cells =
        Array.init
          ((hi - !j) * nbuses)
          (fun k -> (!j + (k / nbuses), buses_arr.(k mod nbuses)))
      in
      let results =
        map
          (fun (it, bus) ->
            let iseed = seeds.(it - batch_lo) in
            (* generate with a throwaway bus; the matrix overrides it *)
            let g = Specgen.spec ~buses (Specgen.Rng.make iseed) in
            (* CLI pins override the drawn CDC dimensions (repro contract:
               --seed regenerates the spec, the pins force the crossing) *)
            let g =
              match config.ratio with
              | None -> g
              | Some r -> { g with Specgen.g_ratio = r }
            in
            let g =
              match config.depth with
              | None -> g
              | Some d -> { g with Specgen.g_depth = d }
            in
            let cmap =
              Option.map (fun _ -> Splice_cover.Cover.create ()) agg
            in
            let res, cost =
              exec_bus ~max_cycles:config.max_cycles ~iseed ~cover:cmap
                ~cache:config.cache g bus config.scheds
            in
            (it, iseed, bus, g, cmap, cost, res))
          cells
      in
      Array.iter
        (fun (it, iseed, bus, g, cmap, cost, res) ->
          if !failure = None then begin
            cache_hits := !cache_hits + cost.replays;
            cache_misses := !cache_misses + cost.builds;
            build_ns := !build_ns + cost.build_ns;
            sim_ns := !sim_ns + cost.sim_ns;
            (* the failing cell's partial map merges too — the aggregate
               is the deterministic prefix up to and including it *)
            (match (agg, cmap) with
            | Some a, Some c -> Splice_cover.Cover.merge_into ~into:a c
            | _ -> ());
            match res with
            | Ok runs ->
                List.iter (fun (_, c) -> calls := !calls + List.length c) runs;
                digest := digest_cell !digest ~iteration:it ~bus runs;
                if bus = buses_arr.(nbuses - 1) then begin
                  iterations := it + 1;
                  log
                    (Printf.sprintf
                       "iteration %d/%d (seed %d): %d buses x %d schedulers ok"
                       (it + 1) config.count iseed nbuses
                       (List.length config.scheds))
                end
            | Error e ->
                let g', (sched', func', msg') =
                  shrink_failure ~max_cycles:config.max_cycles ~iseed ~bus
                    ~scheds:config.scheds ~cache:config.cache g e
                in
                let f =
                  {
                    f_iteration = it;
                    f_seed = iseed;
                    f_bus = bus;
                    f_sched = sched';
                    f_func = func';
                    f_message = msg';
                    f_spec = g';
                    f_ratio = g'.Specgen.g_ratio;
                    f_depth = g'.Specgen.g_depth;
                    (* the dump of an instrumented re-run of the *shrunk*
                       failing cell — like the rest of the failure it is a
                       deterministic function of the task seed, but it is
                       not folded into the digest (the digest predates
                       dumps, and tests and CI pin it) *)
                    f_dump =
                      dump_of ~max_cycles:config.max_cycles ~iseed g' bus
                        sched';
                  }
                in
                iterations := it + 1;
                digest := digest_failure !digest f;
                failure := Some f
          end)
        results;
      j := hi
    done;
    (match agg with
    | Some a ->
        let h, t = Splice_cover.Cover.totals a in
        trajectory := (!iterations, h, t) :: !trajectory
    | None -> ());
    i := batch_hi
  done;
  {
    r_iterations = !iterations;
    r_calls = !calls;
    r_buses = buses;
    r_failure = !failure;
    r_digest = !digest;
    r_cover = agg;
    r_trajectory = List.rev !trajectory;
    r_cache_hits = !cache_hits;
    r_cache_misses = !cache_misses;
    r_build_ns = !build_ns;
    r_sim_ns = !sim_ns;
  }
