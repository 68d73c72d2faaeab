open Splice_devices
open Splice_obs

type row = {
  impl : Interpolator.impl;
  per_scenario : (int * int) list;
  total : int;
}

(* the five implementations elaborate once per domain and then replay: the
   key carries the impl identity (two impls share a spec source but not a
   bus model) so a hit is always the same design *)
let key_of impl =
  {
    Splice_cache.Design_cache.k_tag =
      "eval/interp/" ^ Interpolator.impl_name impl;
    k_src = Interpolator.source_for impl;
    k_bus = (Interpolator.spec_for impl).Splice_syntax.Spec.bus_name;
    k_ratio = (1, 1);
    k_depth = 0;
    k_monitors = true;
    k_env = 0;
  }

(* built on first use, not per grid: [k_bus] costs a spec parse. An atomic
   rather than a [Lazy.t], which raises when pool domains force it at
   once; domains that race here build equal lists. *)
let interp_keys = Atomic.make None

let interp_key impl =
  let keys =
    match Atomic.get interp_keys with
    | Some keys -> keys
    | None ->
        let keys = List.map (fun i -> (i, key_of i)) Interpolator.all_impls in
        Atomic.set interp_keys (Some keys);
        keys
  in
  List.assoc impl keys

(* each implementation cell builds (or replays) its own host, with its own
   kernel and domain-local signals: an independent task for the pool *)
let measure ?pool ?(cache = Splice_cache.Design_cache.default_config) () =
  let map f l =
    match pool with
    | None -> List.map f l
    | Some p ->
        Array.to_list (Splice_par.Pool.map_ordered p f (Array.of_list l))
  in
  map
    (fun impl ->
      let host, _hit =
        Splice_cache.Design_cache.with_cache cache ~key:(interp_key impl)
          ~sched:`Event
          ~build:(fun () -> Interpolator.make_host impl)
      in
      let per_scenario =
        List.map
          (fun s ->
            let result, cycles = Interpolator.run host s in
            let expected =
              Interpolator.reference (Interp_scenarios.inputs s)
            in
            if result <> expected then
              failwith
                (Printf.sprintf
                   "%s, scenario %d: hardware returned %Ld, golden model %Ld"
                   (Interpolator.impl_name impl) s.Interp_scenarios.id result
                   expected);
            (s.Interp_scenarios.id, cycles))
          Interp_scenarios.all
      in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 per_scenario in
      { impl; per_scenario; total })
    Interpolator.all_impls

(* ------------------------------------------------------------------ *)
(* Instrumented measurement: Fig 9.2 with a per-layer cycle budget      *)
(* ------------------------------------------------------------------ *)

type breakdown = { calc : int; bus : int; driver : int; idle : int }

let breakdown_total b = b.calc + b.bus + b.driver + b.idle

(* Deterministic fold over the Fig 9.2 rows (implementation names and
   per-scenario cycle counts in canonical order) — the same splitmix64
   mixing discipline as [Diff.r_digest]. The CLI prints it under
   [eval --digest] and the simulation service returns it from every eval
   request, so daemon-vs-CLI equality is a one-line CI check. *)
let digest rows =
  let mix acc v =
    Splice_par.Splitmix.mix64
      (Int64.add (Int64.mul acc 0x9E3779B97F4A7C15L) v)
  in
  let mix_string acc s =
    String.fold_left (fun a c -> mix a (Int64.of_int (Char.code c))) acc s
  in
  List.fold_left
    (fun acc r ->
      let acc = mix_string acc (Interpolator.impl_name r.impl) in
      List.fold_left
        (fun acc (sc, cy) ->
          mix (mix acc (Int64.of_int sc)) (Int64.of_int cy))
        acc r.per_scenario)
    (mix 0x53504C4943455F45L (* "SPLICE_E" *) (Int64.of_int (List.length rows)))
    rows

type detailed_row = {
  row : row;
  breakdowns : (int * breakdown) list;
  obs : Obs.t;
  kstats : Splice_sim.Kernel.stats;
}

(* never cached: each row's host is built around its own Obs.t, returned in
   the detailed_row with its recorder holding the whole run *)
let measure_detailed () =
  List.map
    (fun impl ->
      let obs = Obs.create () in
      let host = Interpolator.make_host ~obs impl in
      Splice_driver.Host.attach_cycle_breakdown host;
      let m = Obs.metrics obs in
      let snap () =
        {
          calc = Metrics.counter_value m "breakdown/calc";
          bus = Metrics.counter_value m "breakdown/bus";
          driver = Metrics.counter_value m "breakdown/driver";
          idle = Metrics.counter_value m "breakdown/idle";
        }
      in
      let diff a b =
        {
          calc = a.calc - b.calc;
          bus = a.bus - b.bus;
          driver = a.driver - b.driver;
          idle = a.idle - b.idle;
        }
      in
      let per =
        List.map
          (fun s ->
            let before = snap () in
            let result, cycles = Interpolator.run host s in
            let expected =
              Interpolator.reference (Interp_scenarios.inputs s)
            in
            if result <> expected then
              failwith
                (Printf.sprintf
                   "%s, scenario %d: hardware returned %Ld, golden model %Ld"
                   (Interpolator.impl_name impl) s.Interp_scenarios.id result
                   expected);
            (s.Interp_scenarios.id, cycles, diff (snap ()) before))
          Interp_scenarios.all
      in
      let per_scenario = List.map (fun (id, c, _) -> (id, c)) per in
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 per_scenario in
      {
        row = { impl; per_scenario; total };
        breakdowns = List.map (fun (id, _, b) -> (id, b)) per;
        obs;
        kstats = Splice_sim.Kernel.stats (Splice_driver.Host.kernel host);
      })
    Interpolator.all_impls

let breakdown_table drows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Cycle budget by layer (every cycle attributed to exactly one)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-28s %6s %8s %8s %8s %8s %8s\n" "implementation" "scen"
       "cycles" "calc" "bus" "driver" "idle");
  List.iter
    (fun d ->
      let name = Interpolator.impl_name d.row.impl in
      List.iter2
        (fun (id, cycles) (id', b) ->
          assert (id = id');
          Buffer.add_string buf
            (Printf.sprintf "%-28s %6d %8d %8d %8d %8d %8d\n" name id cycles
               b.calc b.bus b.driver b.idle))
        d.row.per_scenario d.breakdowns)
    drows;
  Buffer.contents buf

let build_phase_table drows =
  let us ns = Int64.to_float ns /. 1e3 in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Build-phase accounting (wall time to first runnable cycle)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-28s %14s %12s %12s\n" "implementation" "elaborate"
       "seal" "compile");
  List.iter
    (fun d ->
      let s = d.kstats in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %11.1f us %9.1f us %9.1f us\n"
           (Interpolator.impl_name d.row.impl)
           (us s.Splice_sim.Kernel.elaborate_ns)
           (us s.Splice_sim.Kernel.seal_ns)
           (us s.Splice_sim.Kernel.compile_ns)))
    drows;
  Buffer.contents buf

let stats_report drows =
  build_phase_table drows ^ "\n"
  ^ String.concat "\n"
      (List.map
         (fun d ->
           Export.stats_report
             ~label:(Interpolator.impl_name d.row.impl)
             (Obs.metrics d.obs))
         drows)

let trace_procs drows =
  List.filter_map
    (fun d ->
      Option.map
        (fun r -> (Interpolator.impl_name d.row.impl, r))
        (Obs.recorder d.obs))
    drows

let chrome_trace drows = Export.chrome_trace (trace_procs drows)
let chrome_trace_string drows = Export.chrome_trace_string (trace_procs drows)

let cycles_of rows impl =
  match List.find_opt (fun r -> r.impl = impl) rows with
  | Some r -> r.total
  | None -> raise Not_found

type summary = {
  splice_plb_vs_naive : float;
  splice_fcb_vs_naive : float;
  splice_fcb_vs_optimized : float;
  dma_vs_simple : float;
}

let summarize rows =
  let c impl = float_of_int (cycles_of rows impl) in
  {
    splice_plb_vs_naive =
      c Interpolator.Splice_plb_simple /. c Interpolator.Simple_plb_handcoded;
    splice_fcb_vs_naive =
      c Interpolator.Splice_fcb /. c Interpolator.Simple_plb_handcoded;
    splice_fcb_vs_optimized =
      c Interpolator.Splice_fcb /. c Interpolator.Optimized_fcb_handcoded;
    dma_vs_simple =
      c Interpolator.Splice_plb_dma /. c Interpolator.Splice_plb_simple;
  }

let fig_9_2_table rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 9.2: Clock Cycles Per Run By Each Implementation\n";
  Buffer.add_string buf (Printf.sprintf "%-28s" "implementation");
  List.iter
    (fun (s : Interp_scenarios.t) ->
      Buffer.add_string buf (Printf.sprintf " %8s" (Printf.sprintf "scen %d" s.id)))
    Interp_scenarios.all;
  Buffer.add_string buf (Printf.sprintf " %8s\n" "total");
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "%-28s" (Interpolator.impl_name r.impl));
      List.iter
        (fun (_, c) -> Buffer.add_string buf (Printf.sprintf " %8d" c))
        r.per_scenario;
      Buffer.add_string buf (Printf.sprintf " %8d\n" r.total))
    rows;
  Buffer.contents buf

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>Splice PLB vs naive PLB:      %.2f (paper ~0.75)@,\
     Splice FCB vs naive PLB:      %.2f (paper ~0.57)@,\
     Splice FCB vs optimized FCB:  %.2f (paper ~1.13)@,\
     Splice PLB+DMA vs simple PLB: %.2f (paper 0.96-0.99)@]"
    s.splice_plb_vs_naive s.splice_fcb_vs_naive s.splice_fcb_vs_optimized
    s.dma_vs_simple
