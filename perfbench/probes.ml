(* Per-layer probes of the traced run. Each probe calls one layer's public
   functions from outside, inside spans, and derives that layer's
   metrics; nothing inside the program is instrumented. Sizes are fixed
   (not timed) so the exact counts repeat exactly. *)

open Splice
open Ctx

let m = Report.metric
let us ns = ns /. 1e3
let ms ns = ns /. 1e6
let fl = float_of_int

(* The 99th percentile, which every probe sizes to have at least ten
   samples beyond it; a smaller sample fails the run instead of passing
   off a lower percentile as p99. *)
let p99 ctx xs =
  Report.check ctx.tally ~what:"p99 with fewer than ten samples beyond it"
    (Stat.beyond ~n:(List.length xs) 99. >= 10);
  Stat.percentile xs 99.

(* ---- eval, driver, sim, sis, obs: the Fig 9.2 hosts ---------------- *)

let grid_calls h = List.map (fun s -> Interpolator.run h s) Interp_scenarios.all

(* Simulated counts of one fresh grid (exact: a speed-only change must
   leave them identical). *)
let sim_counts ctx =
  let cycles = ref 0 and evals = ref 0 and checks = ref 0 and called = ref 0 in
  List.iter
    (fun impl ->
      let h = span ctx ~layer:"driver" ~name:"Interpolator.make_host" (fun () ->
          Interpolator.make_host impl) in
      List.iter
        (fun (_, c) -> called := !called + c)
        (span ctx ~layer:"driver" ~name:"Interpolator.run" (fun () -> grid_calls h));
      let st = span ctx ~layer:"sim" ~name:"Kernel.stats" (fun () -> Kernel.stats (Host.kernel h)) in
      cycles := !cycles + st.Kernel.cycles;
      evals := !evals + st.comb_evals;
      checks := !checks + st.checks_run)
    Interpolator.all_impls;
  Report.check ctx.tally
    ~what:(Printf.sprintf "kernel cycles %d <> call cycles %d" !cycles !called)
    (!cycles = !called);
  [
    m "sim.cycles_per_grid" "count" (fl !cycles);
    m "sim.comb_evals_per_cycle" "count" (fl !evals /. fl !cycles);
    m "sim.checks_per_cycle" "count" (fl !checks /. fl !cycles);
  ]

(* Each driver call of 60 grids on built hosts: 1,200 samples, so p99 has
   12 beyond it. *)
let driver ctx =
  let hosts = List.map Interpolator.make_host Interpolator.all_impls in
  let times = ref [] and ns_total = ref 0. and cycles = ref 0 in
  for _ = 1 to 60 do
    List.iter
      (fun h ->
        List.iter
          (fun s ->
            let (_, c), ns =
              Stat.time (fun () ->
                  span ctx ~layer:"driver" ~name:"Interpolator.run" (fun () ->
                      Interpolator.run h s))
            in
            times := ns :: !times;
            ns_total := !ns_total +. ns;
            cycles := !cycles + c)
          Interp_scenarios.all)
      hosts
  done;
  [
    m "driver.ns_per_sim_cycle" "ns" (!ns_total /. fl !cycles);
    m "driver.call_p50_us" "us" (us (Stat.percentile !times 50.));
    m "driver.call_p99_us" "us" (us (p99 ctx !times));
  ]

(* 1,100 whole grids: p99 has 11 beyond it. *)
let eval_grids ctx =
  let times =
    List.init 1100 (fun _ ->
        let rows, ns =
          Stat.time (fun () ->
              span ctx ~layer:"eval" ~name:"Cycles.measure" (fun () -> Cycles.measure ()))
        in
        ignore (Gates.check_grid ctx.tally rows);
        ns)
  in
  [
    m "eval.grid_p50_ms" "ms" (ms (Stat.percentile times 50.));
    m "eval.grid_p99_ms" "ms" (ms (p99 ctx times));
  ]

(* One bus cycle of a built host with nothing to do. *)
let idle_cycle ctx =
  let h = Interpolator.make_host Interpolator.Splice_plb_simple in
  ignore (grid_calls h);
  let k = Host.kernel h and n = 20_000 in
  let best = ref infinity in
  for _ = 1 to 7 do
    let (), ns = Stat.time (fun () -> span ctx ~layer:"sim" ~name:"Kernel.run" (fun () -> Kernel.run k n)) in
    best := Float.min !best (ns /. fl n)
  done;
  [ m "sim.idle_cycle_ns" "ns" !best ]

(* ns per driver call over [reps] grids on [hosts]. *)
let per_call ctx ~layer hosts ~reps () =
  let (), ns =
    Stat.time (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun h -> ignore (span ctx ~layer ~name:"Interpolator.run" (fun () -> grid_calls h)))
            hosts
        done)
  in
  ns /. fl (reps * List.length hosts * List.length Interp_scenarios.all)

let splice_impls = Interpolator.[ Splice_plb_simple; Splice_fcb; Splice_plb_dma ]

(* The Splice Fig 9.2 hosts with or without the SIS protocol monitor,
   built with the arguments [Interpolator.make_host] uses. *)
let splice_host ~monitor impl =
  let issue_overhead = match impl with Interpolator.Splice_fcb -> Some 5 | _ -> None in
  Host.create ~monitor ?issue_overhead (Interpolator.spec_for impl)
    ~behaviors:Interpolator.behavior

let sis_monitor ctx =
  let side monitor =
    per_call ctx ~layer:"sis" (List.map (splice_host ~monitor) splice_impls) ~reps:3
  in
  let best = Stat.paired_minima ~reps:30 [| side true; side false |] in
  [ m "sis.monitor_pct" "%" (Stat.pct_over best.(0) best.(1)) ]

let obs_levels ctx =
  let side obs =
    per_call ctx ~layer:"obs"
      (List.map (fun i -> Interpolator.make_host ?obs:(obs ()) i) Interpolator.all_impls)
      ~reps:2
  in
  let best =
    Stat.paired_minima ~reps:30
      [|
        side (fun () -> Some Obs.none);
        side (fun () -> Some (Obs.create ~recording:false ()));
        side (fun () -> None);
      |]
  in
  [
    m "obs.metrics_pct" "%" (Stat.pct_over best.(1) best.(0));
    m "obs.recorder_pct" "%" (Stat.pct_over best.(2) best.(1));
  ]

(* ---- check, buses, sim schedulers, cache, par: the fuzz sweep ------ *)

type sweep = { wall : float; calls : int; build : int; sim : int; hits : int; misses : int }

(* [Diff.run] over the seeds, configured by [f]. *)
let sweep ctx ~layer ~name ?pool seeds f =
  let acc = ref { wall = 0.; calls = 0; build = 0; sim = 0; hits = 0; misses = 0 } in
  List.iter
    (fun s ->
      let r, ns =
        Stat.time (fun () ->
            span ctx ~layer ~name (fun () -> Diff.run ?pool (f (Inputs.fuzz_config s))))
      in
      Report.check ctx.tally ~what:(Printf.sprintf "%s seed %d failed" name s)
        (r.Diff.r_failure = None);
      let a = !acc in
      acc :=
        {
          wall = a.wall +. ns;
          calls = a.calls + r.r_calls;
          build = a.build + r.r_build_ns;
          sim = a.sim + r.r_sim_ns;
          hits = a.hits + r.r_cache_hits;
          misses = a.misses + r.r_cache_misses;
        })
    seeds;
  !acc

(* [r]'s wall time, remembering in [best] the fastest sweep seen. *)
let fastest best r =
  (match !best with Some b when b.wall <= r.wall -> () | _ -> best := Some r);
  r.wall

(* Paired minima of per-call cost across [sides] (name, config change). *)
let per_call_sides ctx ~layer seeds sides =
  let best =
    Stat.paired_minima ~reps:3
      (Array.map
         (fun (name, f) () ->
           let r = sweep ctx ~layer ~name seeds f in
           r.wall /. fl r.calls)
         sides)
  in
  Array.to_list (Array.mapi (fun i (name, _) -> (name, best.(i))) sides)

let schedulers ctx seeds =
  per_call_sides ctx ~layer:"sim" seeds
    (Array.map
       (fun s -> (Diff.sched_name s, fun c -> { c with Diff.scheds = [ s ] }))
       [| `Event; `Sweep; `Compiled |])
  |> List.map (fun (n, ns) -> m (Printf.sprintf "sim.%s.us_per_call" n) "us" (us ns))

let buses ctx seeds =
  per_call_sides ctx ~layer:"buses" seeds
    (Array.of_list
       (List.map (fun b -> (b, fun c -> { c with Diff.buses = [ b ] })) (Registry.names ())))
  |> List.map (fun (n, ns) -> m (Printf.sprintf "buses.%s.us_per_call" n) "us" (us ns))

(* The default sweep, paired against the same sweep with the cache off;
   the shares come from the fastest default sweep. *)
let cache_and_harness ctx seeds =
  let best = ref None in
  let mins =
    Stat.paired_minima ~reps:8
      [|
        (fun () -> fastest best (sweep ctx ~layer:"check" ~name:"Diff.run" seeds Fun.id));
        (fun () ->
          (sweep ctx ~layer:"cache" ~name:"Diff.run[cache=false]" seeds (fun c ->
               { c with Diff.cache = false }))
            .wall);
      |]
  in
  let r = Option.get !best in
  (* validating every (seed, bus) cell the sweep validates *)
  let (), validate_ns =
    Stat.time (fun () ->
        List.iter
          (fun s ->
            for i = 0 to Inputs.fuzz_count - 1 do
              let g = Specgen.spec (Specgen.Rng.make (Diff.iteration_seed s i)) in
              List.iter
                (fun bus ->
                  ignore
                    (span ctx ~layer:"syntax" ~name:"Specgen.validate" (fun () ->
                         Specgen.validate (Specgen.with_bus g bus))))
                (Registry.names ())
            done)
          seeds)
  in
  [
    m "cache.hit_ratio" "ratio" (fl r.hits /. fl (r.hits + r.misses));
    m "cache.build_share" "ratio" (fl r.build /. r.wall);
    m "cache.off_slowdown_pct" "%" (Stat.pct_over mins.(1) mins.(0));
    m "check.harness_share" "ratio" (1. -. (fl (r.build + r.sim) /. r.wall));
    m "syntax.fuzz_share" "ratio" (validate_ns /. r.wall);
  ]

let j2 ctx seeds =
  let pool = Pool.of_jobs 2 in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      let best = ref None in
      let mins =
        Stat.paired_minima ~reps:3
          [|
            (fun () -> (sweep ctx ~layer:"check" ~name:"Diff.run" seeds Fun.id).wall);
            (fun () ->
              fastest best (sweep ctx ~layer:"par" ~name:"Diff.run[-j 2]" ?pool seeds Fun.id));
          |]
      in
      let r = Option.get !best in
      [
        m "par.fuzz_j2_speedup" "x" (mins.(0) /. mins.(1));
        m "par.fuzz_j2_utilisation" "ratio" (fl (r.build + r.sim) /. (r.wall *. 2.));
      ])

let acquire ctx =
  let impl = Interpolator.Splice_plb_simple in
  let key = Cycles.interp_key impl and build () = Interpolator.make_host impl in
  let acq c =
    span ctx ~layer:"cache" ~name:"Design_cache.acquire" (fun () ->
        ignore (Design_cache.acquire c ~key ~sched:`Event ~build))
  in
  let warm = Design_cache.create ~capacity:4 in
  acq warm;
  let batch n f () =
    let (), ns = Stat.time (fun () -> for _ = 1 to n do f () done) in
    ns /. fl n
  in
  let best =
    Stat.paired_minima ~reps:10
      [|
        batch 200 (fun () -> acq warm);
        batch 20 (fun () -> acq (Design_cache.create ~capacity:1));
      |]
  in
  [
    m "cache.acquire_hit_us" "us" (us best.(0));
    m "cache.acquire_miss_us" "us" (us best.(1));
  ]

(* ---- syntax and codegen: the gen_projects inputs -------------------- *)

let codegen ctx =
  let specs =
    List.map
      (fun src -> (src, Validate.of_string_exn ~lookup_bus:Registry.lookup_caps src))
      (Inputs.gen_sources ctx.seed)
  in
  let n = fl (List.length specs) in
  let per_spec ~layer ~name f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let (), ns =
        Stat.time (fun () ->
            List.iter (fun s -> ignore (span ctx ~layer ~name (fun () -> f s))) specs)
      in
      best := Float.min !best (ns /. n)
    done;
    !best
  in
  let bus (spec : Spec.t) = Option.get (Registry.find spec.bus_name) in
  let gen name f = m ("codegen." ^ name ^ "_us") "us" (us (per_spec ~layer:"codegen" ~name f)) in
  let examples =
    List.map (Project.from_source ~gen_date:Workloads.gen_date) (Inputs.example_specs ())
  in
  let bytes =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (f : Project.file) -> acc + String.length f.contents)
          acc (Project.files p))
      0 examples
  in
  [
    m "syntax.validate_us" "us"
      (us
         (per_spec ~layer:"syntax" ~name:"Validate.of_string" (fun (src, _) ->
              ignore (Validate.of_string ~lookup_bus:Registry.lookup_caps src))));
    gen "busgen" (fun (_, spec) -> ignore (Busgen.generate ~gen_date:Workloads.gen_date (bus spec) spec));
    gen "arbitergen" (fun (_, spec) -> ignore (Arbitergen.generate spec));
    gen "stubgen" (fun (_, spec) ->
        List.iter (fun f -> ignore (Stubgen.generate spec f)) spec.Spec.funcs);
    gen "drivergen" (fun (_, spec) ->
        ignore (Drivergen.header_file spec);
        ignore (Drivergen.source_file spec);
        ignore (Drivergen.test_suite spec));
    m "codegen.bytes_per_project" "bytes" (fl bytes /. fl (List.length examples));
  ]

(* ---- serve and par: a short serve mix ------------------------------- *)

let serve_metrics ctx ~startup (samples : Serve_mix.sample list) =
  let all f = List.map f samples in
  let p50 f = Stat.median (all f) in
  [
    m "serve.startup_ms" "ms" (startup *. 1e3);
    m "serve.p99_ms" "ms" (ms (p99 ctx (all (fun s -> s.latency_ns))));
    m "par.queue_wait_p50_ms" "ms" (ms (p50 (fun s -> s.queue_ns)));
    m "par.queue_wait_p99_ms" "ms" (ms (p99 ctx (all (fun s -> s.queue_ns))));
    m "serve.exec_p50_ms" "ms" (ms (p50 (fun s -> s.elab_ns +. s.sim_ns)));
    m "serve.reply_p50_us" "us" (us (p50 (fun s -> s.reply_ns)));
    m "serve.overhead_p50_ms" "ms"
      (ms (p50 (fun s -> s.latency_ns -. s.queue_ns -. s.elab_ns -. s.sim_ns)));
    m "serve.spec_p50_ms" "ms" (ms (Stat.median (Serve_mix.spec_latencies samples)));
  ]

(* ---- all of them ------------------------------------------------------ *)

let run ctx ~serve =
  let next = Inputs.fuzz_seeds ctx.seed in
  let seeds = List.init 4 (fun _ -> next ()) in
  (* in this order: list literals evaluate right to left, so run thunks *)
  List.concat_map
    (fun (name, f) -> span ctx ~layer:"bench" ~name:("probe " ^ name) f)
    [
      ("sim_counts", fun () -> sim_counts ctx);
      ("driver", fun () -> driver ctx);
      ("eval", fun () -> eval_grids ctx);
      ("idle", fun () -> idle_cycle ctx);
      ("sis", fun () -> sis_monitor ctx);
      ("obs", fun () -> obs_levels ctx);
      ("schedulers", fun () -> schedulers ctx seeds);
      ("buses", fun () -> buses ctx seeds);
      ("cache", fun () -> cache_and_harness ctx seeds);
      ("par", fun () -> j2 ctx seeds);
      ("acquire", fun () -> acquire ctx);
      ("codegen", fun () -> codegen ctx);
      ( "serve",
        fun () ->
          let startup, samples = serve () in
          Serve_mix.record_spans ctx.spans samples;
          serve_metrics ctx ~startup samples );
    ]
