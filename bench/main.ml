(* Benchmark harness.

   Part 1 reproduces every table and figure of the thesis's evaluation
   (Ch 9): Fig 9.1 (scenario parameters), Fig 9.2 (clock cycles per run,
   with the §9.3.1 summary ratios), Fig 9.3 (FPGA resources), plus the
   ablation studies DESIGN.md indexes (E4 packing, E5 DMA crossover,
   E8 arbitration scaling, E9 bursts).

   Part 2 uses Bechamel to time the tool itself — the §10.1 claim that
   Splice "can generate interconnects almost instantly" (E7) — with one
   Test.make per evaluation artifact. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: paper tables                                                *)
(* ------------------------------------------------------------------ *)

let part1 pool = print_string (Splice.Tables.everything ?pool ())

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let timer_spec =
  lazy
    (Splice.Validate.of_string_exn
       ~lookup_bus:Splice.Registry.lookup_caps Splice.Timer.spec_source)

let bench_parse_validate =
  Test.make ~name:"parse+validate (Fig 8.2 spec)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Validate.of_string ~lookup_bus:Splice.Registry.lookup_caps
              Splice.Timer.spec_source)))

let bench_generate =
  Test.make ~name:"full project generation (Figs 8.3+8.7)"
    (Staged.stage (fun () ->
         ignore (Splice.Project.generate ~gen_date:"bench" (Lazy.force timer_spec))))

let bench_fig_9_1 =
  Test.make ~name:"Fig 9.1 scenario table"
    (Staged.stage (fun () -> ignore (Splice.Interp_scenarios.fig_9_1_table ())))

let bench_fig_9_2_one_run =
  (* one complete cycle-accurate driver call (scenario 1, Splice PLB) — the
     unit of measurement behind every Fig 9.2 cell *)
  let host =
    lazy (Splice.Interpolator.make_host Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"Fig 9.2 cell (1 simulated driver call)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

let bench_fig_9_3 =
  Test.make ~name:"Fig 9.3 resource estimation (5 impls)"
    (Staged.stage (fun () ->
         List.iter
           (fun i -> ignore (Splice.Interpolator.resource_usage i))
           Splice.Interpolator.all_impls))

(* Scheduler ablation (E14): the same simulated driver call on the legacy
   sweep kernel vs the event-driven kernel — the wall-clock side of the
   comb-eval counts the part-1 E14 table reports. *)
let bench_cycles_sweep_kernel =
  let host =
    lazy
      (Splice.Interpolator.make_host ~sched:`Sweep
         Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"driver call, sweep scheduler (legacy)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

let bench_cycles_event_kernel =
  let host =
    lazy
      (Splice.Interpolator.make_host ~sched:`Event
         Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"driver call, event scheduler (default)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

let bench_cycles_compiled_kernel =
  let host =
    lazy
      (Splice.Interpolator.make_host ~sched:`Compiled
         Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"driver call, compiled op-tape scheduler"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

(* Observability overhead (E10/E16): the same simulated driver call at the
   three instrumentation levels — opted out via Obs.none, metrics only
   ([~recording:false]), and the default metrics + flight recorder. The
   always-on design is only tenable if each step stays small: the
   recorder's budget is <5% on top of metrics (E16). The three Bechamel
   rows below give the absolute times; the authoritative delta comes from
   the paired measurement after them (see [recorder_overhead]), because
   differencing two independently-quota'd rows carries the full
   run-to-run noise of a shared machine. *)
let bench_cycles_uninstrumented =
  let host =
    lazy
      (Splice.Interpolator.make_host ~obs:Splice.Obs.none
         Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"driver call, observability off (Obs.none)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

let bench_cycles_metrics_only =
  let host =
    lazy
      (Splice.Interpolator.make_host
         ~obs:(Splice.Obs.create ~recording:false ())
         Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"driver call, metrics only (recorder off)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

let bench_cycles_instrumented =
  let host =
    lazy
      (Splice.Interpolator.make_host ~obs:(Splice.Obs.create ())
         Splice.Interpolator.Splice_plb_simple)
  in
  Test.make ~name:"driver call, metrics+recorder on (default)"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

(* Functional coverage overhead: the same driver call with the full PLB
   protocol coverage group attached — cycle-level phase/wait sampling on
   every settle plus the adapter engine's transaction-level points
   (resolved once at engine creation via the ambient map). *)
let bench_cycles_covered =
  let host =
    lazy
      (let c = Splice.Cover.create () in
       let caps = Splice.Registry.lookup_caps "plb" in
       Splice.Bus_cover.declare c ~bus:"plb" ~caps;
       Splice.Cover.set_ambient (Some c);
       let h =
         Fun.protect
           ~finally:(fun () -> Splice.Cover.set_ambient None)
           (fun () ->
             Splice.Interpolator.make_host Splice.Interpolator.Splice_plb_simple)
       in
       Splice.Bus_cover.attach c ~bus:"plb" ~caps (Splice.Host.kernel h)
         (Splice.Host.sis h);
       h)
  in
  Test.make ~name:"driver call, coverage sampling on"
    (Staged.stage (fun () ->
         ignore
           (Splice.Interpolator.run (Lazy.force host)
              (Splice.Interp_scenarios.by_id 1))))

let bench_serve_protocol =
  (* wire-protocol overhead of the simulation service: parse one fuzz
     request line and render a reply envelope with its span tree — the
     per-request cost the daemon adds on top of the simulation itself *)
  let line =
    "{\"kind\":\"fuzz\",\"seed\":42,\"count\":3,\"bus\":\"axi\",\
     \"sched\":\"both\",\"ratio\":\"3:1\"}"
  in
  let reply =
    Splice.Serve_protocol.reply ~req:42 ~kind:"fuzz"
      ~outcome:Splice.Serve_protocol.Ok_
      ~fields:[ ("digest", Splice.Json.String "0x0123456789abcdef") ]
      ~spans:
        [
          Splice.Serve_protocol.span "request" 1_000_000
            ~children:
              [
                Splice.Serve_protocol.span "queue_wait" 1_000;
                Splice.Serve_protocol.span "simulate" 900_000;
              ];
        ]
      ()
  in
  Test.make ~name:"serve protocol: parse request + render reply"
    (Staged.stage (fun () ->
         ignore (Splice.Serve_protocol.parse_line line);
         ignore (Splice.Json.to_string reply)))

let bench_stubgen =
  Test.make ~name:"single stub generation (VHDL)"
    (Staged.stage (fun () ->
         let spec = Lazy.force timer_spec in
         ignore (Splice.Stubgen.generate spec (List.hd spec.Splice.Spec.funcs))))

let benchmarks =
  [
    bench_parse_validate;
    bench_generate;
    bench_stubgen;
    bench_fig_9_1;
    bench_fig_9_2_one_run;
    bench_fig_9_3;
    bench_cycles_sweep_kernel;
    bench_cycles_event_kernel;
    bench_cycles_compiled_kernel;
    bench_cycles_uninstrumented;
    bench_cycles_metrics_only;
    bench_cycles_instrumented;
    bench_cycles_covered;
    bench_serve_protocol;
  ]

(* E16: the recorder-overhead delta, measured paired. Identical-config
   Bechamel rows have measured up to ~9% apart on a noisy shared machine,
   so the <5% claim cannot ride on a difference of two independent rows.
   Instead the three instrumentation levels are timed in small interleaved
   batches with rotated order, keeping the per-level minimum: load spikes
   hit every level equally and the min filters them out. *)
let recorder_overhead ~reps ~batch =
  let time_one ~obs n =
    let host =
      Splice.Interpolator.make_host ?obs Splice.Interpolator.Splice_plb_simple
    in
    let sc = Splice.Interp_scenarios.by_id 1 in
    ignore (Splice.Interpolator.run host sc);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Splice.Interpolator.run host sc)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  let cfg = function
    | 0 -> Some Splice.Obs.none
    | 1 -> Some (Splice.Obs.create ~recording:false ())
    | _ -> None (* default observability: metrics + flight recorder *)
  in
  let best = [| infinity; infinity; infinity |] in
  for r = 0 to reps - 1 do
    for k = 0 to 2 do
      let i = (r + k) mod 3 in
      let t = time_one ~obs:(cfg i) batch in
      if t < best.(i) then best.(i) <- t
    done
  done;
  (best.(0), best.(1), best.(2))

(* Settle-loop speedup, measured paired like [recorder_overhead]: a
   [depth]-deep combinational chain registered in reverse data order and
   re-excited every cycle — the settle loop is essentially the entire
   cycle. The interpreted schedulers need [depth] ordered delta passes
   (each a full O(n) walk over the component array), the levelized tape
   one pass over an int bitset — this isolates exactly the dispatch cost
   the op-tape compiles away. *)
let chain_depth = 128

let make_chain ~sched ~depth =
  let sigs = Array.init (depth + 1) (fun _ -> Splice.Signal.create 16) in
  let k =
    Splice.Kernel.create ~sched ~obs:Splice.Obs.none
      ~max_comb_iters:(depth + 4) ()
  in
  (* consumer-before-producer registration: in-pass propagation cannot
     collapse the interpreted schedulers' pass count *)
  for i = depth - 1 downto 0 do
    let src = sigs.(i) and dst = sigs.(i + 1) in
    Splice.Kernel.add k
      (Splice.Component.make ~reads:[ src ]
         ~comb:(fun () ->
           Splice.Signal.set_int dst ((Splice.Signal.get_int src + 1) land 0xffff))
         (Printf.sprintf "stage%d" i))
  done;
  let n = ref 0 in
  Splice.Kernel.add k
    (Splice.Component.make
       ~seq:(fun () ->
         incr n;
         Splice.Signal.set_next_int sigs.(0) (!n land 0xffff))
       "drv");
  k

let sched_speedup ~reps ~batch =
  let time_one sched n =
    let k = make_chain ~sched ~depth:chain_depth in
    Splice.Kernel.cycle k;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      Splice.Kernel.cycle k
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  let scheds = [| `Sweep; `Event; `Compiled |] in
  let best = [| infinity; infinity; infinity |] in
  for r = 0 to reps - 1 do
    for j = 0 to 2 do
      let i = (r + j) mod 3 in
      let t = time_one scheds.(i) batch in
      if t < best.(i) then best.(i) <- t
    done
  done;
  (best.(0), best.(1), best.(2))

(* Minor-heap words per idle cycle on the Fig 9.2 Splice PLB host (default
   observability), per scheduler: one grid, cycles until the design goes
   quiet, then [n] idle cycles. The steady-state cycle is allocation-free
   (test/test_alloc.ml asserts 0); this row trends it next to the settle
   timings. *)
let idle_alloc ~n =
  let words sched =
    let host =
      Splice.Interpolator.make_host ~sched Splice.Interpolator.Splice_plb_simple
    in
    List.iter
      (fun sc -> ignore (Splice.Interpolator.run host sc))
      Splice.Interp_scenarios.all;
    let k = Splice.Host.kernel host in
    let rec quiesce budget =
      let before = Splice.Signal.change_count () in
      Splice.Kernel.cycle k;
      if budget > 0 && Splice.Signal.change_count () <> before then
        quiesce (budget - 1)
    in
    quiesce 64;
    let w0 = Gc.minor_words () in
    Splice.Kernel.run k n;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  (words `Sweep, words `Event, words `Compiled)

let print_idle_alloc (sweep, event, compiled) =
  Printf.printf
    "\n== Minor words per idle cycle (Fig 9.2 Splice PLB host) ==\n\n\
     %-44s %11.2f\n\
     %-44s %11.2f\n\
     %-44s %11.2f\n"
    "sweep scheduler" sweep "event scheduler" event "compiled op-tape" compiled

(* Design-cache replay (E19, microscopic side), measured paired like
   [recorder_overhead]: full elaboration of the Fig 9.2 Splice PLB host vs
   a cache-hit replay of the same design (instance reset back to the
   end-of-elaboration snapshot). The fuzz-grid speedup in the E19 table is
   the macroscopic consequence of this per-acquisition gap. *)
let cache_replay ~reps ~batch =
  let key = Splice.Cycles.interp_key Splice.Interpolator.Splice_plb_simple in
  let build () =
    Splice.Interpolator.make_host Splice.Interpolator.Splice_plb_simple
  in
  let cache = Splice.Design_cache.create ~capacity:4 in
  ignore (Splice.Design_cache.acquire cache ~key ~sched:`Event ~build);
  let time f n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9
  in
  let one = function
    | 0 -> time (fun () -> ignore (build ())) batch
    | _ ->
        time
          (fun () ->
            ignore
              (Splice.Design_cache.acquire cache ~key ~sched:`Event ~build))
          batch
  in
  let best = [| infinity; infinity |] in
  for r = 0 to reps - 1 do
    for k = 0 to 1 do
      let i = (r + k) mod 2 in
      let t = one i in
      if t < best.(i) then best.(i) <- t
    done
  done;
  (best.(0), best.(1))

(* Build-phase accounting (satellite of E19): where the wall time to the
   first runnable cycle goes on a fresh build — the costs a replay skips
   (elaborate) or defers to the next seal (seal, compile). *)
let build_phases () =
  let host =
    Splice.Interpolator.make_host ~sched:`Compiled
      Splice.Interpolator.Splice_plb_simple
  in
  ignore (Splice.Interpolator.run host (Splice.Interp_scenarios.by_id 1));
  let s = Splice.Kernel.stats (Splice.Host.kernel host) in
  ( s.Splice.Kernel.elaborate_ns,
    s.Splice.Kernel.seal_ns,
    s.Splice.Kernel.compile_ns )

let print_cache (build_ns, replay_ns) (ela, seal, comp) =
  let us ns = Int64.to_float ns /. 1e3 in
  Printf.printf
    "\n== Design-cache replay, paired minima (E19) ==\n\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n\
     %-44s %10.2f x\n\
     build phases of one fresh compiled host:\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n"
    "host elaboration (Fig 9.2 Splice PLB)" (build_ns /. 1e3)
    "cache-hit replay (instance reset)" (replay_ns /. 1e3)
    "replay vs elaborate"
    (build_ns /. Float.max replay_ns 1e-9)
    "  elaborate" (us ela) "  seal" (us seal) "  compile" (us comp)

let print_speedup (sweep, event, compiled) =
  Printf.printf
    "\n== Settle-loop speedup, paired minima (%d-deep comb chain) ==\n\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n\
     %-44s %10.2f x\n\
     %-44s %10.2f x\n"
    chain_depth "settle, sweep scheduler" (sweep /. 1e3)
    "settle, event scheduler" (event /. 1e3)
    "settle, compiled op-tape" (compiled /. 1e3)
    "compiled vs event" (event /. compiled)
    "compiled vs sweep" (sweep /. compiled)

let print_overhead (off, metrics, full) =
  let pct a b = (a -. b) /. b *. 100. in
  Printf.printf
    "\n== Recorder overhead, paired minima (E16) ==\n\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n\
     %-44s %11.3f us\n\
     %-44s %10.2f %%\n\
     %-44s %10.2f %%\n"
    "driver call, observability off" (off /. 1e3)
    "driver call, metrics only" (metrics /. 1e3)
    "driver call, metrics+recorder (default)" (full /. 1e3)
    "metrics overhead vs off" (pct metrics off)
    "recorder overhead vs metrics only" (pct full metrics)

(* Timing itself stays sequential even under -j: concurrent domains on the
   same cores would perturb every estimate. Returns (name, ns/run) rows. *)
let run_bechamel ~quota =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  Printf.printf "\n== Tool-speed micro-benchmarks (E7, §10.1) ==\n\n";
  Printf.printf "%-44s %14s\n" "benchmark" "time/run";
  let rows = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              rows := (name, est) :: !rows;
              let pretty =
                if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
                else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
                else Printf.sprintf "%8.1f ns" est
              in
              Printf.printf "%-44s %14s\n" name pretty
          | _ -> Printf.printf "%-44s %14s\n" name "n/a")
        results)
    benchmarks;
  List.rev !rows

let write_json path ~quick ~jobs ~overhead ~speedup ~idle ~cache ~phases rows =
  let off, metrics, full = overhead in
  let sweep_ns, event_ns, compiled_ns = speedup in
  let sweep_w, event_w, compiled_w = idle in
  let build_ns, replay_ns = cache in
  let ela_ns, seal_ns, comp_ns = phases in
  let pct a b = (a -. b) /. b *. 100. in
  Splice.Export.write_file path
    (Splice.Json.to_string
       (Obj
          [
            ("quick", Bool quick);
            ("jobs", Int jobs);
            ( "benchmarks",
              List
                (List.map
                   (fun (name, ns) ->
                     Splice.Json.Obj
                       [ ("name", String name); ("ns_per_run", Float ns) ])
                   rows) );
            ( "recorder_overhead",
              Obj
                [
                  ("obs_off_ns", Float off);
                  ("metrics_only_ns", Float metrics);
                  ("metrics_recorder_ns", Float full);
                  ("metrics_pct", Float (pct metrics off));
                  ("recorder_pct", Float (pct full metrics));
                ] );
            ( "sched_speedup",
              (* the compiled column: paired minima on the settle-loop
                 chain workload (see [sched_speedup]) *)
              Obj
                [
                  ( "workload",
                    String
                      (Printf.sprintf "%d-deep comb chain, 1 settle per cycle"
                         chain_depth) );
                  ("sweep_ns_per_cycle", Float sweep_ns);
                  ("event_ns_per_cycle", Float event_ns);
                  ("compiled_ns_per_cycle", Float compiled_ns);
                  ("compiled_vs_event", Float (event_ns /. compiled_ns));
                  ("compiled_vs_sweep", Float (sweep_ns /. compiled_ns));
                ] );
            ( "minor_words_per_idle_cycle",
              (* allocation of a quiet cycle per scheduler ([idle_alloc]) *)
              Obj
                [
                  ("host", String "Fig 9.2 Splice PLB (Simple), after one grid");
                  ("sweep", Float sweep_w);
                  ("event", Float event_w);
                  ("compiled", Float compiled_w);
                ] );
            ( "design_cache",
              (* paired minima: fresh elaboration vs cache-hit replay of
                 the same design (see [cache_replay]) *)
              Obj
                [
                  ("build_ns", Float build_ns);
                  ("replay_ns", Float replay_ns);
                  ( "replay_speedup",
                    Float (build_ns /. Float.max replay_ns 1e-9) );
                ] );
            ( "build_phases",
              (* one fresh compiled host, one sealed call ([build_phases]) *)
              Obj
                [
                  ("elaborate_ns", Float (Int64.to_float ela_ns));
                  ("seal_ns", Float (Int64.to_float seal_ns));
                  ("compile_ns", Float (Int64.to_float comp_ns));
                ] );
          ]));
  Printf.printf "wrote kernel benchmark summary to %s\n" path

(* flags: --quick (CI smoke: tables + short-quota timings only with --json),
   --json FILE, -j N / --jobs N *)
let () =
  let argv = Sys.argv in
  let quick = Array.exists (String.equal "--quick") argv in
  let value_of flag =
    let r = ref None in
    Array.iteri
      (fun i a ->
        if (a = flag || a = "--jobs" && flag = "-j") && i + 1 < Array.length argv
        then r := Some argv.(i + 1))
      argv;
    !r
  in
  let json = value_of "--json" in
  let jobs =
    match value_of "-j" with
    | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
    | None -> 1
  in
  let pool = Splice.Pool.of_jobs jobs in
  Fun.protect
    ~finally:(fun () -> Option.iter Splice.Pool.shutdown pool)
    (fun () -> part1 pool);
  (* full runs always time; quick runs only when a JSON report is wanted,
     with a short quota (absolute numbers are smoke-grade there) *)
  if (not quick) || json <> None then begin
    let rows = run_bechamel ~quota:(if quick then 0.05 else 0.5) in
    let overhead =
      if quick then recorder_overhead ~reps:6 ~batch:100
      else recorder_overhead ~reps:36 ~batch:500
    in
    print_overhead overhead;
    let speedup =
      if quick then sched_speedup ~reps:6 ~batch:200
      else sched_speedup ~reps:24 ~batch:1000
    in
    print_speedup speedup;
    let idle = idle_alloc ~n:10_000 in
    print_idle_alloc idle;
    let cache =
      if quick then cache_replay ~reps:4 ~batch:20
      else cache_replay ~reps:12 ~batch:100
    in
    let phases = build_phases () in
    print_cache cache phases;
    Option.iter
      (fun path ->
        write_json path ~quick ~jobs ~overhead ~speedup ~idle ~cache ~phases rows)
      json
  end;
  if not quick then begin
    print_newline ();
    print_endline
      "All figures above correspond to the per-experiment index in DESIGN.md;";
    print_endline "paper-vs-measured comparisons are recorded in EXPERIMENTS.md."
  end
