(* Design cache: content-hashed keys, LRU bounds, and — the load-bearing
   property — that an instance-reset replay is byte-identical to a fresh
   build on every scheduler (VCD dump, results, cycle counts, kernel
   stats). The fuzz sweep's cell-local replay: invisible in the report,
   counted exactly, and off the domain cache. Plus the owner-scoped
   pending-write teardown replay made necessary (Host.retire must not
   bleed into other live designs). *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int msg = Alcotest.(check int) msg
let check_bool msg = Alcotest.(check bool) msg

(* ------------------------------------------------------------------ *)
(* Keys and LRU                                                        *)
(* ------------------------------------------------------------------ *)

let base_key =
  {
    Design_cache.k_tag = "test";
    k_src = "int f(int x);";
    k_bus = "plb";
    k_ratio = (1, 1);
    k_depth = 0;
  }

let spec_src =
  "%device_name cachedut\n%bus_type plb\n%bus_width 32\n%base_address \
   0x80000000\nint sum(int n, int*:n xs);"

let behaviors _ =
  Stub_model.behavior ~cycles:4 (fun inputs ->
      [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ])

let spec =
  lazy (Validate.of_string_exn ~lookup_bus:Registry.lookup_caps spec_src)

(* a counting builder: how many times did the cache actually elaborate? *)
let builder () =
  let builds = ref 0 in
  let build () =
    incr builds;
    Signal.reset_names ();
    Host.create (Lazy.force spec) ~behaviors
  in
  (builds, build)

let key_tests =
  [
    t "same key hits, every differing field misses" (fun () ->
        let builds, build = builder () in
        let c = Design_cache.create ~capacity:16 in
        let acquire key =
          ignore (Design_cache.acquire c ~key ~sched:`Event ~build)
        in
        acquire base_key;
        check_int "first acquire builds" 1 !builds;
        acquire base_key;
        check_int "same key replays" 1 !builds;
        (* the scheduler is deliberately NOT part of the key *)
        ignore (Design_cache.acquire c ~key:base_key ~sched:`Sweep ~build);
        check_int "sched change still replays" 1 !builds;
        List.iteri
          (fun i key ->
            acquire key;
            check_int (Printf.sprintf "variant %d misses" i) (2 + i) !builds)
          [
            { base_key with Design_cache.k_tag = "test2" };
            { base_key with Design_cache.k_src = "int f(int x, int y);" };
            { base_key with Design_cache.k_bus = "apb" };
            { base_key with Design_cache.k_ratio = (3, 2) };
            { base_key with Design_cache.k_depth = 4 };
          ];
        let s = Design_cache.stats c in
        check_int "hits" 2 s.Design_cache.hits;
        check_int "misses" 6 s.Design_cache.misses);
    t "hash is a pure function of the key" (fun () ->
        Alcotest.(check int64)
          "equal keys, equal hashes"
          (Design_cache.hash_key base_key)
          (Design_cache.hash_key { base_key with Design_cache.k_tag = "test" });
        check_bool "different keys, different hashes" true
          (Design_cache.hash_key base_key
          <> Design_cache.hash_key
               { base_key with Design_cache.k_src = "void g();" }));
    t "lru evicts the least recently used entry" (fun () ->
        let builds, build = builder () in
        let c = Design_cache.create ~capacity:2 in
        let key tag = { base_key with Design_cache.k_tag = tag } in
        let acquire tag =
          ignore (Design_cache.acquire c ~key:(key tag) ~sched:`Event ~build)
        in
        acquire "a";
        acquire "b";
        acquire "a" (* refresh a: b is now the LRU entry *);
        acquire "c" (* evicts b *);
        check_int "three builds so far" 3 !builds;
        acquire "a";
        check_int "a survived" 3 !builds;
        acquire "b";
        check_int "b was evicted" 4 !builds;
        let s = Design_cache.stats c in
        check_int "evictions" 2 s.Design_cache.evictions;
        check_int "bounded entries" 2 s.Design_cache.entries);
    t "capacity must be positive" (fun () ->
        Alcotest.check_raises "zero capacity"
          (Invalid_argument "Design_cache.create: capacity must be >= 1")
          (fun () -> ignore (Design_cache.create ~capacity:0)));
  ]

(* ------------------------------------------------------------------ *)
(* Replay equivalence: fresh build vs cache hit, all three schedulers  *)
(* ------------------------------------------------------------------ *)

(* one complete observation of a run: results, cycles, the full VCD dump
   of the SIS signals, and the deterministic kernel counters *)
type observation = {
  o_results : int64 list list;
  o_cycles : int list;
  o_vcd : string;
  o_kcycles : int;
  o_evals : int;
  o_checks : int;
}

let traffic = [ [ 1L; 2L; 3L ]; [ 10L; 20L; 30L; 40L ]; [ 5L ] ]

(* every run is traced: a window reads the kernel's recorder from the
   moment it is created, so each replay gets its own VCD *)
let observe host =
  let k = Host.kernel host in
  let wave = Wave.create k (Sis_if.signals (Host.sis host)) in
  let runs =
    List.map
      (fun xs ->
        Host.call host ~func:"sum"
          ~args:[ ("n", [ Int64.of_int (List.length xs) ]); ("xs", xs) ])
      traffic
  in
  let s = Kernel.stats k in
  {
    o_results = List.map fst runs;
    o_cycles = List.map snd runs;
    o_vcd = Wave.vcd wave ~module_name:"tb";
    o_kcycles = s.Kernel.cycles;
    o_evals = s.Kernel.comb_evals;
    o_checks = s.Kernel.checks_run;
  }

let check_observation msg a b =
  List.iteri
    (fun i (ra, rb) ->
      Alcotest.(check (list int64)) (Printf.sprintf "%s: result %d" msg i) ra rb)
    (List.combine a.o_results b.o_results);
  Alcotest.(check (list int)) (msg ^ ": cycles") a.o_cycles b.o_cycles;
  Alcotest.(check string) (msg ^ ": vcd dump") a.o_vcd b.o_vcd;
  check_int (msg ^ ": kernel cycles") a.o_kcycles b.o_kcycles;
  check_int (msg ^ ": comb evals") a.o_evals b.o_evals;
  check_int (msg ^ ": checks run") a.o_checks b.o_checks

(* the build a fuzz cell performs: host plus protocol monitor, with the
   monitor's signals adopted into the owned set *)
let build_monitored sched () =
  Signal.reset_names ();
  let host = Host.create ~sched (Lazy.force spec) ~behaviors in
  Host.adopt host (fun () ->
      Bus_monitor.attach (Host.kernel host) ~bus:"plb" (Host.sis host));
  host

let replay_tests =
  List.map
    (fun (sched, name) ->
      t
        (Printf.sprintf "replay == fresh build (%s scheduler)" name)
        (fun () ->
          let fresh = observe (build_monitored sched ()) in
          let c = Design_cache.create ~capacity:4 in
          let acquire () =
            Design_cache.acquire c ~key:base_key ~sched
              ~build:(build_monitored sched)
          in
          let warm, hit0 = acquire () in
          check_bool "first acquire is a miss" false hit0;
          check_observation "first run" fresh (observe warm);
          (* first replay: reset after a run that started from a fresh
             build *)
          let h1, hit1 = acquire () in
          check_bool "second acquire is a hit" true hit1;
          check_observation "replay 1" fresh (observe h1);
          (* second replay: reset after a run that was itself a replay (under
             `Compiled, its second tape compile on the same host) *)
          let h2, hit2 = acquire () in
          check_bool "third acquire is a hit" true hit2;
          check_observation "replay 2" fresh (observe h2)))
    [ (`Event, "event"); (`Sweep, "sweep"); (`Compiled, "compiled") ]

(* fuzz only ever replays an entry event -> sweep -> compiled; one entry
   must move between the schedulers in any order, every step matching a
   fresh build under the scheduler it runs on *)
let sched_order_tests =
  [
    t "one entry replays under every scheduler in any order" (fun () ->
        let fresh =
          List.map
            (fun sched -> (sched, observe (build_monitored sched ())))
            [ `Event; `Sweep; `Compiled ]
        in
        let builds = ref 0 in
        let build () =
          incr builds;
          build_monitored `Compiled ()
        in
        let c = Design_cache.create ~capacity:4 in
        List.iteri
          (fun i sched ->
            let host, hit = Design_cache.acquire c ~key:base_key ~sched ~build in
            check_bool (Printf.sprintf "step %d hits" i) (i > 0) hit;
            check_observation (Printf.sprintf "step %d" i)
              (List.assoc sched fresh) (observe host))
          [ `Compiled; `Event; `Sweep; `Compiled; `Event ];
        check_int "one elaboration" 1 !builds);
  ]

(* a replay rewinds the design, not its observations: an instrumented
   cached host keeps counting across replays, so after its first run and
   one replay every counter holds twice a fresh build's count — and the
   CPU model keeps its cached driver/op handles, so the registry gains no
   second entry for any of them *)
let op_counter_tests =
  let counters host =
    List.map
      (fun c -> (Metrics.counter_name c, Metrics.count c))
      (Metrics.counters (Obs.metrics (Host.obs host)))
  in
  let ops host =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"driver/op/" name)
      (counters host)
  in
  let doubled = List.map (fun (name, n) -> (name, 2 * n)) in
  [
    t "driver/op counters accumulate across a cache-hit replay" (fun () ->
        let fresh = build_monitored `Event () in
        ignore (observe fresh);
        let c = Design_cache.create ~capacity:4 in
        let acquire () =
          Design_cache.acquire c ~key:base_key ~sched:`Event
            ~build:(build_monitored `Event)
        in
        let warm, _ = acquire () in
        ignore (observe warm);
        let hit, was_hit = acquire () in
        check_bool "second acquire is a hit" true was_hit;
        check_bool "the hit is the warm host" true (hit == warm);
        ignore (observe hit);
        check_bool "ops were counted" true (ops fresh <> []);
        Alcotest.(check (list (pair string int)))
          "driver/op/* doubled, in registry order" (doubled (ops fresh))
          (ops hit);
        Alcotest.(check (list (pair string int)))
          "whole counter registry doubled" (doubled (counters fresh))
          (counters hit));
  ]

(* ------------------------------------------------------------------ *)
(* Sweep determinism: cache on/off, -j 1 / -j 4                        *)
(* ------------------------------------------------------------------ *)

let diff_config cache =
  {
    Diff.default_config with
    seed = 123;
    count = 6;
    buses = [ "plb"; "apb"; "axi" ];
    cover = true;
    cache;
  }

let run_diff ?jobs cache =
  match jobs with
  | None -> Diff.run (diff_config cache)
  | Some j -> (
      match Pool.of_jobs j with
      | None -> Diff.run (diff_config cache)
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () -> Diff.run ~pool (diff_config cache)))

let digest_tests =
  [
    t "sweep digest is byte-identical with the cache on and off" (fun () ->
        let on_ = run_diff true in
        let off = run_diff false in
        Alcotest.(check int64) "digest" off.Diff.r_digest on_.Diff.r_digest;
        (* a replay rewinds the SIS decoder too: coverage read off it
           must not see the previous run *)
        let map r = Cover.to_string (Option.get r.Diff.r_cover) in
        Alcotest.(check string) "coverage map" (map off) (map on_);
        check_int "calls" off.Diff.r_calls on_.Diff.r_calls;
        check_bool "no failure" true (on_.Diff.r_failure = None);
        check_bool "cache saw reuse" true (on_.Diff.r_cache_hits > 0);
        check_int "cache off reports no traffic" 0
          (off.Diff.r_cache_hits + off.Diff.r_cache_misses));
    t "cached sweep digest is -j invariant (1 vs 4)" (fun () ->
        let j1 = run_diff ~jobs:1 true in
        let j4 = run_diff ~jobs:4 true in
        Alcotest.(check int64) "digest" j1.Diff.r_digest j4.Diff.r_digest;
        check_int "calls" j1.Diff.r_calls j4.Diff.r_calls);
    t "one build per cell, one replay per later scheduler, at any -j"
      (fun () ->
        let nscheds = List.length (diff_config true).Diff.scheds in
        List.iter
          (fun jobs ->
            let r = run_diff ~jobs true in
            let cells = r.Diff.r_iterations * List.length r.Diff.r_buses in
            let msg = Printf.sprintf "-j %d" jobs in
            check_int (msg ^ ": cells") 18 cells;
            check_int (msg ^ ": misses = cells") cells r.Diff.r_cache_misses;
            check_int
              (msg ^ ": hits = cells x (scheds - 1)")
              (cells * (nscheds - 1))
              r.Diff.r_cache_hits)
          [ 1; 4 ]);
    t "a sweep leaves the caller domain's design cache untouched" (fun () ->
        (* the eval grid gives this domain a cache with entries in it *)
        ignore (Cycles.measure ());
        let before = Design_cache.domain_stats () in
        check_bool "domain cache exists" true (before <> None);
        ignore (run_diff true);
        check_bool "stats and entries unchanged" true
          (Design_cache.domain_stats () = before));
    t "a repeated eval grid replays every design from the domain cache"
      (fun () ->
        (* the Fig 9.2 grid acquires one host per implementation; on a
           second run in the same domain each of them is a hit *)
        ignore (Cycles.measure ());
        let stats () =
          match Design_cache.domain_stats () with
          | Some s -> s
          | None -> Alcotest.fail "no domain cache after an eval grid"
        in
        let s1 = stats () in
        let rows = Cycles.measure () in
        let s2 = stats () in
        check_int "no new builds" s1.Design_cache.misses s2.Design_cache.misses;
        check_int "one hit per implementation" (List.length rows)
          (s2.Design_cache.hits - s1.Design_cache.hits);
        check_int "entries unchanged" s1.Design_cache.entries
          s2.Design_cache.entries);
    t "cell-local replay is invisible under any scheduler order" (fun () ->
        let run cache =
          Diff.run
            {
              Diff.default_config with
              seed = 77;
              count = 3;
              buses = [ "plb"; "axi" ];
              scheds = [ `Compiled; `Sweep; `Event ];
              cache;
            }
        in
        let on_ = run true and off = run false in
        Alcotest.(check int64) "digest" off.Diff.r_digest on_.Diff.r_digest;
        check_bool "no failure" true (on_.Diff.r_failure = None);
        check_int "replays" (2 * on_.Diff.r_cache_misses) on_.Diff.r_cache_hits);
  ]

(* ------------------------------------------------------------------ *)
(* Owner-scoped teardown (the aborted-call hazard)                     *)
(* ------------------------------------------------------------------ *)

let retire_tests =
  [
    t "clear_pending_for only drops the owner's writes" (fun () ->
        let a = Signal.create 8 and b = Signal.create 8 in
        Signal.set_owner a ~owner:101;
        Signal.set_owner b ~owner:202;
        Signal.set_next a (Bits.of_int ~width:8 0x5a);
        Signal.set_next b (Bits.of_int ~width:8 0x3c);
        Signal.clear_pending_for ~owner:101;
        Signal.commit_pending ();
        check_int "a's write was dropped" 0 (Signal.get_int a);
        check_int "b's write survived" 0x3c (Signal.get_int b));
    t "Host.retire cannot bleed into another cached design" (fun () ->
        Signal.reset_names ();
        let host_a = Host.create (Lazy.force spec) ~behaviors in
        let host_b = Host.create (Lazy.force spec) ~behaviors in
        let sig_of h = List.hd (Sis_if.signals (Host.sis h)) in
        let sa = sig_of host_a and sb = sig_of host_b in
        let va = Signal.get_int sa and vb = Signal.get_int sb in
        Signal.set_next sa (Bits.of_int ~width:(Signal.width sa) (va lxor 1));
        Signal.set_next sb (Bits.of_int ~width:(Signal.width sb) (vb lxor 1));
        (* aborting a call on A must not drop B's queued writes *)
        Host.retire host_a;
        Signal.commit_pending ();
        check_int "A's pending write dropped" va (Signal.get_int sa);
        check_int "B's pending write committed" (vb lxor 1)
          (Signal.get_int sb));
  ]

let tests =
  [
    ("cache.key", key_tests);
    ("cache.replay", replay_tests @ sched_order_tests @ op_counter_tests);
    ("cache.digest", digest_tests);
    ("cache.retire", retire_tests);
  ]
