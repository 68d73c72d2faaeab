(* lib/par tests: the domain pool (ordering, exception propagation, reuse
   after failure), the promoted splitmix64 generator, the deterministic
   Obs/Metrics merge, and the headline property of the whole PR — the
   parallel grids (Diff fuzz sweep, Fig 9.2 measurement) are bit-identical
   to the sequential path at every worker count. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_int64 = Alcotest.(check int64)

(* ------------------------------ pool ------------------------------ *)

let test_map_ordered_sequential () =
  Pool.with_pool ~domains:0 (fun p ->
      check_int "domains" 0 (Pool.domains p);
      check_int "size" 1 (Pool.size p);
      let r = Pool.map_ordered p (fun x -> x * x) [| 1; 2; 3; 4; 5 |] in
      Alcotest.(check (array int)) "squares" [| 1; 4; 9; 16; 25 |] r)

let test_map_ordered_parallel () =
  (* 3 workers + caller; staggered sleeps so completion order differs from
     input order — results must still come back in input order *)
  Pool.with_pool ~domains:3 (fun p ->
      check_int "size" 4 (Pool.size p);
      let input = Array.init 20 (fun i -> i) in
      let r =
        Pool.map_ordered p
          (fun i ->
            if i mod 4 = 0 then Unix.sleepf 0.002;
            i * 10)
          input
      in
      Alcotest.(check (array int)) "ordered" (Array.map (fun i -> i * 10) input) r)

let test_map_ordered_empty_and_single () =
  Pool.with_pool ~domains:2 (fun p ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_ordered p succ [||]);
      Alcotest.(check (array int)) "single" [| 8 |] (Pool.map_ordered p succ [| 7 |]))

exception Boom of int

let test_exception_propagation_and_reuse () =
  Pool.with_pool ~domains:2 (fun p ->
      (* lowest-index exception wins, deterministically *)
      (match
         Pool.map_ordered p
           (fun i -> if i >= 3 then raise (Boom i) else i)
           [| 0; 1; 2; 3; 4; 5 |]
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> check_int "lowest failing index" 3 i);
      (* the pool survives a failing map *)
      let r = Pool.map_ordered p succ [| 10; 20; 30 |] in
      Alcotest.(check (array int)) "reused after failure" [| 11; 21; 31 |] r)

let test_of_jobs () =
  check_bool "-j 1 is None" true (Pool.of_jobs 1 = None);
  check_int "jobs None" 1 (Pool.jobs None);
  (match Pool.of_jobs 3 with
  | None -> Alcotest.fail "-j 3 must build a pool"
  | Some p ->
      check_int "3 executors" 3 (Pool.size p);
      check_int "jobs" 3 (Pool.jobs (Some p));
      Pool.shutdown p);
  (* -j 0 = auto: a pool of recommended_domain_count executors, or the
     plain sequential path on a single-core machine *)
  match Pool.of_jobs 0 with
  | None ->
      check_bool "auto None only on 1-core" true
        (Domain.recommended_domain_count () <= 1)
  | Some p ->
      check_int "auto executors" (Domain.recommended_domain_count ())
        (Pool.size p);
      Pool.shutdown p

(* ---------------------------- splitmix ---------------------------- *)

let test_splitmix_stream () =
  (* same seed, same stream — and decorrelated from a neighbouring seed *)
  let a = Splitmix.make 42 and b = Splitmix.make 42 and c = Splitmix.make 43 in
  let sa = List.init 8 (fun _ -> Splitmix.next a) in
  let sb = List.init 8 (fun _ -> Splitmix.next b) in
  let sc = List.init 8 (fun _ -> Splitmix.next c) in
  check_bool "deterministic" true (sa = sb);
  check_bool "decorrelated" true (sa <> sc);
  let d = Splitmix.make 7 in
  List.iter
    (fun _ ->
      let n = Splitmix.int d 10 in
      check_bool "int in range" true (n >= 0 && n < 10))
    sa

let test_splitmix_split () =
  let parent = Splitmix.make 99 in
  let l, r = Splitmix.split parent in
  let sl = List.init 4 (fun _ -> Splitmix.next l) in
  let sr = List.init 4 (fun _ -> Splitmix.next r) in
  check_bool "children decorrelated" true (sl <> sr);
  (* split is itself deterministic *)
  let l', r' = Splitmix.split (Splitmix.make 99) in
  check_bool "left reproducible" true (sl = List.init 4 (fun _ -> Splitmix.next l'));
  check_bool "right reproducible" true (sr = List.init 4 (fun _ -> Splitmix.next r'))

let test_split_seed () =
  check_int "task 0 keeps the root seed" 1234 (Splitmix.split_seed 1234 0);
  let seeds = List.init 16 (Splitmix.split_seed 1234) in
  check_int "all distinct"
    (List.length seeds)
    (List.length (List.sort_uniq compare seeds));
  List.iter (fun s -> check_bool "non-negative" true (s >= 0)) seeds;
  check_int "same as Diff.iteration_seed" (Splitmix.split_seed 5 3)
    (Diff.iteration_seed 5 3)

(* --------------------------- Obs.merge ---------------------------- *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "calls") 3;
  Metrics.add (Metrics.counter b "calls") 4;
  Metrics.add (Metrics.counter b "only_b") 7;
  Metrics.set (Metrics.gauge a "depth") 5;
  Metrics.set (Metrics.gauge b "depth") 2;
  Metrics.observe (Metrics.histogram a "lat") 3;
  Metrics.observe (Metrics.histogram b "lat") 100;
  Metrics.merge_into ~into:a b;
  check_int "counters sum" 7 (Metrics.counter_value a "calls");
  check_int "missing counters appear" 7 (Metrics.counter_value a "only_b");
  check_int "gauges max" 5 (Metrics.level (Metrics.gauge a "depth"));
  let h = Option.get (Metrics.find_histogram a "lat") in
  check_int "histogram n" 2 (Metrics.observations h);
  check_int "histogram sum" 103 (Metrics.total h);
  check_int "histogram min" 3 (Metrics.min_value h);
  check_int "histogram max" 100 (Metrics.max_value h)

let test_metrics_merge_order_independent () =
  (* commutative + associative: fold in two different orders, same result *)
  let mk seeds =
    List.map
      (fun s ->
        let m = Metrics.create () in
        Metrics.add (Metrics.counter m "c") s;
        Metrics.observe (Metrics.histogram m "h") (s * 3);
        m)
      seeds
  in
  let fold ms =
    let acc = Metrics.create () in
    List.iter (fun m -> Metrics.merge_into ~into:acc m) ms;
    ( Metrics.counter_value acc "c",
      let h = Option.get (Metrics.find_histogram acc "h") in
      (Metrics.observations h, Metrics.total h, Metrics.min_value h,
       Metrics.max_value h, Metrics.bucket_counts h) )
  in
  check_bool "order independent" true
    (fold (mk [ 1; 5; 9; 2 ]) = fold (mk [ 9; 2; 1; 5 ]))

let test_obs_merge () =
  let into = Obs.create () and src = Obs.create () in
  Metrics.add (Metrics.counter (Obs.metrics src) "x") 2;
  Obs.merge ~into src;
  check_int "metrics merged" 2 (Metrics.counter_value (Obs.metrics into) "x");
  (match Obs.merge ~into into with
  | () -> Alcotest.fail "self-merge must be rejected"
  | exception Invalid_argument _ -> ());
  (* merging into a disabled context is a no-op, not a crash *)
  Obs.merge ~into:Obs.none src

(* ----------------- parallel grids are deterministic ----------------- *)

let fuzz_config =
  { Diff.default_config with seed = 7; count = 3; buses = [ "plb"; "apb" ] }

let run_fuzz jobs =
  match Pool.of_jobs jobs with
  | None -> Diff.run fuzz_config
  | Some p ->
      Fun.protect
        ~finally:(fun () -> Pool.shutdown p)
        (fun () -> Diff.run ~pool:p fuzz_config)

let test_diff_parallel_identical () =
  let base = run_fuzz 1 in
  check_bool "seed sweep passes" true (base.Diff.r_failure = None);
  List.iter
    (fun jobs ->
      let r = run_fuzz jobs in
      check_int
        (Printf.sprintf "-j %d iterations" jobs)
        base.Diff.r_iterations r.Diff.r_iterations;
      check_int
        (Printf.sprintf "-j %d calls" jobs)
        base.Diff.r_calls r.Diff.r_calls;
      check_int64
        (Printf.sprintf "-j %d digest" jobs)
        base.Diff.r_digest r.Diff.r_digest;
      check_bool
        (Printf.sprintf "-j %d buses" jobs)
        true
        (base.Diff.r_buses = r.Diff.r_buses))
    [ 2; 4 ]

let test_diff_parallel_logs_identical () =
  let collect jobs =
    let lines = ref [] in
    let log l = lines := l :: !lines in
    (match Pool.of_jobs jobs with
    | None -> ignore (Diff.run ~log fuzz_config)
    | Some p ->
        Fun.protect
          ~finally:(fun () -> Pool.shutdown p)
          (fun () -> ignore (Diff.run ~log ~pool:p fuzz_config)));
    List.rev !lines
  in
  let seq = collect 1 in
  check_bool "some progress lines" true (seq <> []);
  check_bool "-j 3 log byte-identical" true (seq = collect 3)

let test_diff_failure_deterministic () =
  (* a 1-cycle watchdog fails every call: the reported counterexample
     (cell, seed, message, shrunk spec) must not depend on scheduling *)
  let config =
    {
      Diff.default_config with
      seed = 11;
      count = 4;
      buses = [ "plb"; "apb" ];
      max_cycles = 1;
    }
  in
  let run jobs =
    match Pool.of_jobs jobs with
    | None -> Diff.run config
    | Some p ->
        Fun.protect
          ~finally:(fun () -> Pool.shutdown p)
          (fun () -> Diff.run ~pool:p config)
  in
  let fail r =
    match r.Diff.r_failure with
    | Some f -> f
    | None -> Alcotest.fail "1-cycle watchdog must fail"
  in
  let base = run 1 in
  let bf = fail base in
  List.iter
    (fun jobs ->
      let r = run jobs in
      let f = fail r in
      check_int "same iteration" bf.Diff.f_iteration f.Diff.f_iteration;
      check_int "same seed" bf.Diff.f_seed f.Diff.f_seed;
      Alcotest.(check string) "same bus" bf.Diff.f_bus f.Diff.f_bus;
      Alcotest.(check string)
        "same message" bf.Diff.f_message f.Diff.f_message;
      Alcotest.(check string) "same shrunk spec"
        (Specgen.render bf.Diff.f_spec)
        (Specgen.render f.Diff.f_spec);
      check_int64 "same digest" base.Diff.r_digest r.Diff.r_digest)
    [ 2; 4 ]

let test_obs_merge_parallel_identical () =
  (* per-task Obs contexts fanned over a pool, folded in canonical order:
     the aggregate must not depend on the worker count *)
  let aggregate jobs =
    let work i =
      let obs = Obs.create () in
      let m = Obs.metrics obs in
      Metrics.add (Metrics.counter m "sim/comb_evals") (i * 3);
      Metrics.observe (Metrics.histogram m "cycles") (i mod 7);
      obs
    in
    let input = Array.init 24 (fun i -> i) in
    let per_task =
      match Pool.of_jobs jobs with
      | None -> Array.map work input
      | Some p ->
          Fun.protect
            ~finally:(fun () -> Pool.shutdown p)
            (fun () -> Pool.map_ordered p work input)
    in
    let acc = Obs.create () in
    Array.iter (fun o -> Obs.merge ~into:acc o) per_task;
    let m = Obs.metrics acc in
    let h = Option.get (Metrics.find_histogram m "cycles") in
    ( Metrics.counter_value m "sim/comb_evals",
      Metrics.observations h,
      Metrics.total h,
      Metrics.bucket_counts h )
  in
  let base = aggregate 1 in
  check_bool "-j 2 aggregate identical" true (base = aggregate 2);
  check_bool "-j 4 aggregate identical" true (base = aggregate 4)

let test_cycles_measure_parallel_identical () =
  let seq = Cycles.measure () in
  let par =
    Pool.with_pool ~domains:2 (fun p -> Cycles.measure ~pool:p ())
  in
  check_bool "Fig 9.2 rows identical" true (seq = par)

let tests =
  [
    ( "par.pool",
      [
        t "map_ordered: sequential pool" test_map_ordered_sequential;
        t "map_ordered: parallel, input order" test_map_ordered_parallel;
        t "map_ordered: empty and singleton" test_map_ordered_empty_and_single;
        t "exceptions: lowest index wins, pool reusable"
          test_exception_propagation_and_reuse;
        t "of_jobs mapping" test_of_jobs;
      ] );
    ( "par.splitmix",
      [
        t "deterministic stream" test_splitmix_stream;
        t "split decorrelates" test_splitmix_split;
        t "split_seed" test_split_seed;
      ] );
    ( "par.merge",
      [
        t "metrics: sums, max, histograms" test_metrics_merge;
        t "metrics: order independent" test_metrics_merge_order_independent;
        t "obs merge" test_obs_merge;
      ] );
    ( "par.determinism",
      [
        t "diff: -j 1/2/4 bit-identical" test_diff_parallel_identical;
        t "diff: progress log identical under pool"
          test_diff_parallel_logs_identical;
        t "diff: failure + shrunk spec identical under pool"
          test_diff_failure_deterministic;
        t "merged obs aggregate identical under pool"
          test_obs_merge_parallel_identical;
        t "fig 9.2 measurement identical under pool"
          test_cycles_measure_parallel_identical;
      ] );
  ]
