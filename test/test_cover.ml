(* lib/cover tests: bin semantics, the settled-value watch hook, canonical
   serialization and deterministic merging, the per-bus protocol groups on
   every registered bus, the adapter engine's transaction sampling into a
   host-given map,
   and the headline properties — coverage maps bit-identical at any -j and
   guided fuzzing strictly ahead of random at an equal budget. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub = Astring_contains.contains s sub

(* ------------------------------ bins ------------------------------ *)

let basics_tests =
  [
    t "value bins count exact matches only" (fun () ->
        let c = Cover.create () in
        let g = Cover.group c "g" in
        let p = Cover.point g "p" (Cover.Values [ ("a", 1); ("b", 2) ]) in
        Cover.sample p 1;
        Cover.sample p 1;
        Cover.sample p 2;
        Cover.sample p 99;
        (* no bin, no count *)
        Alcotest.(check (list (pair string int)))
          "counts"
          [ ("a", 2); ("b", 1) ]
          (Cover.bins p);
        check_int "hit" 2 (Cover.hit p);
        check_int "total" 2 (Cover.total p));
    t "range bins are inclusive at both ends" (fun () ->
        let c = Cover.create () in
        let g = Cover.group c "g" in
        let p =
          Cover.point g "p" (Cover.Ranges [ ("lo", 0, 3); ("hi", 4, 7) ])
        in
        List.iter (Cover.sample p) [ 0; 3; 4; 7; 8 ];
        Alcotest.(check (list (pair string int)))
          "counts"
          [ ("lo", 2); ("hi", 2) ]
          (Cover.bins p));
    t "transition bins need sample_pair; sample raises" (fun () ->
        let c = Cover.create () in
        let g = Cover.group c "g" in
        let p =
          Cover.point g "p" (Cover.Transitions [ ("x->y", 1, 2) ])
        in
        Cover.sample_pair p ~from_:1 ~to_:2;
        Cover.sample_pair p ~from_:2 ~to_:1;
        (* no bin *)
        Alcotest.(check (list (pair string int)))
          "counts" [ ("x->y", 1) ] (Cover.bins p);
        (match Cover.sample p 1 with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ()));
    t "cross bins cover the product; a missing axis drops the sample"
      (fun () ->
        let c = Cover.create () in
        let g = Cover.group c "g" in
        let a = Cover.point g "a" (Cover.Values [ ("a0", 0); ("a1", 1) ]) in
        let b = Cover.point g "b" (Cover.Ranges [ ("small", 1, 4) ]) in
        let x = Cover.cross g "axb" a b in
        check_int "product size" 2 (Cover.total x);
        Cover.sample2 x 0 2;
        Cover.sample2 x 1 3;
        Cover.sample2 x 7 2;
        (* no a-bin for 7 *)
        Alcotest.(check (list (pair string int)))
          "counts"
          [ ("a0*small", 1); ("a1*small", 1) ]
          (Cover.bins x));
    t "find-or-create returns the same point; reshape raises" (fun () ->
        let c = Cover.create () in
        let g = Cover.group c "g" in
        let p = Cover.point g "p" (Cover.Values [ ("a", 1) ]) in
        Cover.sample p 1;
        let p' = Cover.point g "p" (Cover.Values [ ("a", 1) ]) in
        check_int "counts preserved" 1 (Cover.hit p');
        (match Cover.point g "p" (Cover.Values [ ("a", 2) ]) with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ()));
    t "totals filters by group prefix and point names" (fun () ->
        let c = Cover.create () in
        let g1 = Cover.group c "bus/x" in
        let g2 = Cover.group c "other" in
        let p1 = Cover.point g1 "phase" (Cover.Values [ ("a", 0) ]) in
        let _p2 = Cover.point g1 "misc" (Cover.Values [ ("b", 0) ]) in
        let _p3 = Cover.point g2 "phase" (Cover.Values [ ("c", 0) ]) in
        Cover.sample p1 0;
        let hit, total = Cover.totals c in
        check_int "all total" 3 total;
        check_int "all hit" 1 hit;
        let hit, total =
          Cover.totals ~prefix:"bus/" ~points:[ "phase" ] c
        in
        check_int "filtered total" 1 total;
        check_int "filtered hit" 1 hit);
  ]

(* --------------------- serialization + merge ---------------------- *)

let sample_map () =
  let c = Cover.create () in
  let g = Cover.group c "bus/demo" in
  let v = Cover.point g "v" (Cover.Values [ ("a", 1); ("b", 2) ]) in
  let r = Cover.point g "r" (Cover.Ranges [ ("lo", 0, 9) ]) in
  let tr = Cover.point g "t" (Cover.Transitions [ ("a->b", 1, 2) ]) in
  let x = Cover.cross g "x" v r in
  Cover.sample v 1;
  Cover.sample r 4;
  Cover.sample_pair tr ~from_:1 ~to_:2;
  Cover.sample2 x 2 5;
  c

let serialization_tests =
  [
    t "json round-trip preserves shape and counts byte-for-byte" (fun () ->
        let c = sample_map () in
        let s = Cover.to_string c in
        match Cover.of_string s with
        | Error e -> Alcotest.fail e
        | Ok c' -> check_string "canonical bytes" s (Cover.to_string c'));
    t "of_string rejects garbage with Error, not an exception" (fun () ->
        check_bool "not json" true
          (Result.is_error (Cover.of_string "not json"));
        check_bool "wrong shape" true
          (Result.is_error (Cover.of_string "{\"version\":9}")));
    t "load on a missing file is an Error" (fun () ->
        check_bool "missing" true
          (Result.is_error (Cover.load "/nonexistent/cover.json")));
    t "merge_into sums counters; fresh groups are created" (fun () ->
        let a = sample_map () in
        let b = sample_map () in
        let extra = Cover.group b "bus/other" in
        let pe = Cover.point extra "p" (Cover.Values [ ("z", 0) ]) in
        Cover.sample pe 0;
        Cover.merge_into ~into:a b;
        let g = Option.get (Cover.find_group a "bus/demo") in
        let v = Option.get (Cover.find_point g "v") in
        Alcotest.(check (list (pair string int)))
          "summed" [ ("a", 2); ("b", 0) ] (Cover.bins v);
        check_bool "new group" true (Cover.find_group a "bus/other" <> None));
    t "merge order does not change the serialized bytes" (fun () ->
        let m1 = Cover.create () and m2 = Cover.create () in
        let a = sample_map () and b = sample_map () in
        let pa =
          Cover.point (Cover.group a "bus/demo") "v"
            (Cover.Values [ ("a", 1); ("b", 2) ])
        in
        Cover.sample pa 2;
        Cover.merge_into ~into:m1 a;
        Cover.merge_into ~into:m1 b;
        Cover.merge_into ~into:m2 b;
        Cover.merge_into ~into:m2 a;
        check_string "commutative bytes" (Cover.to_string m1)
          (Cover.to_string m2));
    t "report and openmetrics render; exposition ends with # EOF" (fun () ->
        let c = sample_map () in
        let rep = Cover.report c in
        check_bool "group named" true (contains rep "bus/demo");
        check_bool "has percentage" true (contains rep "%");
        let om = Cover.openmetrics c in
        (* Openmetrics sanitizes '/' to '_' in metric names *)
        check_bool "counter line" true (contains om "cover_bus_demo_v_a");
        check_bool "gauges" true (contains om "cover_bins_hit");
        check_bool "terminator" true
          (String.length om >= 6
          && String.sub om (String.length om - 6) 6 = "# EOF\n"));
  ]

(* -------------------- per-bus protocol groups --------------------- *)

let bus_group_tests =
  [
    t "declare builds a group for every registered bus" (fun () ->
        let c = Cover.create () in
        List.iter
          (fun bus ->
            Bus_cover.declare c ~bus ~caps:(Registry.lookup_caps bus))
          (Registry.names ());
        List.iter
          (fun bus ->
            match Cover.find_group c (Bus_cover.group_name bus) with
            | None -> Alcotest.failf "no group for %s" bus
            | Some g ->
                List.iter
                  (fun p ->
                    match Cover.find_point g p with
                    | None -> Alcotest.failf "%s: no %s point" bus p
                    | Some _ -> ())
                  [ "phase"; "phase_seq"; "grant"; "wait_r"; "burst";
                    "dir"; "dir_x_burst" ])
          (Registry.names ()));
    t "declare is idempotent" (fun () ->
        let c = Cover.create () in
        let caps = Registry.lookup_caps "plb" in
        Bus_cover.declare c ~bus:"plb" ~caps;
        let before = Cover.to_string c in
        Bus_cover.declare c ~bus:"plb" ~caps;
        check_string "unchanged" before (Cover.to_string c));
    t "wait_w and dma bins follow the bus capabilities" (fun () ->
        let c = Cover.create () in
        Bus_cover.declare c ~bus:"apb" ~caps:(Registry.lookup_caps "apb");
        Bus_cover.declare c ~bus:"plb" ~caps:(Registry.lookup_caps "plb");
        let apb = Option.get (Cover.find_group c "bus/apb") in
        let plb = Option.get (Cover.find_group c "bus/plb") in
        (* APB is strictly synchronous: writes may not stall *)
        check_bool "apb has no wait_w" true
          (Cover.find_point apb "wait_w" = None);
        check_bool "plb has wait_w" true
          (Cover.find_point plb "wait_w" <> None);
        let dir_names g =
          List.map fst (Cover.bins (Option.get (Cover.find_point g "dir")))
        in
        check_bool "apb has no dma dirs" true
          (not (List.mem "dma_w" (dir_names apb)));
        check_bool "plb has dma dirs" true (List.mem "dma_w" (dir_names plb)));
    t "host-given map + engine sample transactions, including status grants"
      (fun () ->
        Signal.reset_names ();
        let c = Cover.create () in
        let spec = Interpolator.spec_for Interpolator.Splice_plb_simple in
        (* the host declares the bus's group, hands the map to the bus
           model and attaches the cycle-level sampler itself *)
        let host =
          Host.create ~cover:c spec ~behaviors:(fun f -> Interpolator.behavior f)
        in
        let txn = Option.get (Bus_cover.find_txn c ~bus:"plb") in
        Bus_cover.sample_txn txn ~func_id:0 ~dir:`Read ~words:1;
        let g = Option.get (Cover.find_group c "bus/plb") in
        let grant = Option.get (Cover.find_point g "grant") in
        check_int "status grant" 1 (List.assoc "status" (Cover.bins grant));
        let before_dir =
          Cover.hit (Option.get (Cover.find_point g "dir"))
        in
        ignore (Interpolator.run host (Interp_scenarios.by_id 1));
        let dir = Option.get (Cover.find_point g "dir") in
        let phase = Option.get (Cover.find_point g "phase") in
        check_bool "engine sampled dirs" true (Cover.hit dir > before_dir);
        check_bool "cycle sampler hit phases" true (Cover.hit phase >= 3));
    t "no coverage map means the engine samples nothing" (fun () ->
        Signal.reset_names ();
        let spec = Interpolator.spec_for Interpolator.Splice_plb_simple in
        let host =
          Host.create spec ~behaviors:(fun f -> Interpolator.behavior f)
        in
        ignore (Interpolator.run host (Interp_scenarios.by_id 1)));
  ]

(* ------------------- fuzz integration + -j identity ---------------- *)

let fuzz_config =
  {
    Diff.default_config with
    seed = 11;
    count = 6;
    buses = [ "plb"; "apb" ];
    cover = true;
  }

let check_same_map seq par =
  Alcotest.(check int64) "digest" seq.Diff.r_digest par.Diff.r_digest;
  check_string "map bytes"
    (Cover.to_string (Option.get seq.Diff.r_cover))
    (Cover.to_string (Option.get par.Diff.r_cover))

let fuzz_tests =
  [
    t "fuzz sweep returns a populated map and a monotone trajectory"
      (fun () ->
        let report = Diff.run fuzz_config in
        check_bool "no failure" true (report.Diff.r_failure = None);
        let c = Option.get report.Diff.r_cover in
        let hit, total = Cover.totals c in
        check_bool "bins hit" true (hit > 0 && hit <= total);
        check_bool "trajectory non-empty" true
          (report.Diff.r_trajectory <> []);
        let rec monotone = function
          | (_, h1, t1) :: ((_, h2, t2) :: _ as rest) ->
              h1 <= h2 && t1 = t2 && monotone rest
          | _ -> true
        in
        check_bool "monotone closure" true
          (monotone report.Diff.r_trajectory);
        (match List.rev report.Diff.r_trajectory with
        | (it, h, tot) :: _ ->
            check_int "final iterations" report.Diff.r_iterations it;
            check_int "final hit" hit h;
            check_int "final total" total tot
        | [] -> ()));
    t "coverage map bytes are identical at -j 1 and -j 4" (fun () ->
        let run j =
          match Splice_par.Pool.of_jobs j with
          | None -> Diff.run fuzz_config
          | Some pool ->
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () -> Diff.run ~pool fuzz_config)
        in
        let seq = run 1 in
        let par = run 4 in
        check_same_map seq par);
  ]

let guided_tests =
  [
    t "guided fuzzing is strictly ahead of random at an equal budget"
      (fun () ->
        let points = Experiment.Coverage.run ~seed:2 ~count:10 () in
        check_bool "trajectory rows" true (points <> []);
        check_bool "guided wins" true (Experiment.Coverage.guided_wins points);
        check_bool "table renders" true
          (contains (Experiment.Coverage.table points) "guided"));
  ]

let tests =
  [
    ("cover.bins", basics_tests);
    ("cover.serialization", serialization_tests);
    ("cover.bus_groups", bus_group_tests);
    ("cover.fuzz", fuzz_tests);
    ("cover.guided", guided_tests);
  ]
