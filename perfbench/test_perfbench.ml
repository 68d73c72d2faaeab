(* The benchmark's own arithmetic: tail percentiles, span self time,
   metric names, reply accounting and the output gates. *)

let check = Alcotest.(check bool)

let tail_rule () =
  let tail = Alcotest.(check (option (float 0.))) in
  tail "1000 samples: p99 has 10 beyond" (Some 99.) (Stat.tail_percentile 1000);
  tail "999 samples: p99 has 9 beyond, so p95" (Some 95.) (Stat.tail_percentile 999);
  tail "150 samples: p90" (Some 90.) (Stat.tail_percentile 150);
  tail "10000 samples: p99.9" (Some 99.9) (Stat.tail_percentile 10_000);
  tail "20 samples: p50" (Some 50.) (Stat.tail_percentile 20);
  tail "19 samples: nothing has 10 beyond" None (Stat.tail_percentile 19);
  Alcotest.(check int) "beyond p99 of 1200" 12 (Stat.beyond ~n:1200 99.);
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p99 is the 990th" 990. (Stat.percentile xs 99.);
  Alcotest.(check int) "samples above it" 10
    (List.length (List.filter (fun x -> x > Stat.percentile xs 99.) xs));
  Alcotest.(check (float 0.)) "median" 3. (Stat.median [ 5.; 1.; 3.; 4.; 2. ])

let span ~id ~parent ~layer t0 t1 =
  { Span.id; parent; layer; name = layer; req = 0; t0 = Int64.of_int t0; t1 = Int64.of_int t1 }

let self_time () =
  (* root [0,100] has children a [10,40] and b [30,60], which overlap;
     a has a child c [15,20] *)
  let spans =
    [
      span ~id:1 ~parent:0 ~layer:"root" 0 100;
      span ~id:2 ~parent:1 ~layer:"x" 10 40;
      span ~id:3 ~parent:1 ~layer:"x" 30 60;
      span ~id:4 ~parent:2 ~layer:"y" 15 20;
    ]
  in
  let self =
    List.map (fun ((s : Span.t), ns) -> (s.id, Int64.to_int ns)) (Span.self_times spans)
  in
  Alcotest.(check (list (pair int int)))
    "self = duration - covered by children"
    [ (1, 50); (2, 25); (3, 30); (4, 5) ]
    self;
  Alcotest.(check (list (pair string int)))
    "per layer"
    [ ("x", 55); ("root", 50); ("y", 5) ]
    (List.map (fun (l, _, _, sf) -> (l, Int64.to_int sf)) (Span.by_layer spans));
  (* a child sticking out of its parent only covers the overlap *)
  let clipped =
    Span.self_times [ span ~id:1 ~parent:0 ~layer:"p" 0 10; span ~id:2 ~parent:1 ~layer:"c" 5 50 ]
  in
  Alcotest.(check int) "clipped" 5 (Int64.to_int (snd (List.hd clipped)));
  (* the recorder nests spans by call structure *)
  let r = Span.create () in
  Span.set r true;
  Span.around r ~layer:"outer" ~name:"o" (fun () ->
      Span.around r ~layer:"inner" ~name:"i" ignore);
  match Span.spans r with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner's parent" outer.id inner.parent;
      Alcotest.(check int) "outer is a root" 0 outer.parent
  | _ -> Alcotest.fail "expected two spans"

let names () =
  List.iter
    (fun n -> check n true (Report.valid_name n))
    [ "fuzz.calls_per_s"; "sim.event.us_per_call"; "setup_s"; "p-1"; "9lives" ];
  List.iter
    (fun n -> check (Printf.sprintf "%S" n) false (Report.valid_name n))
    [ ""; "bad name"; "x/y"; "_lead"; ".lead"; "caf\xc3\xa9"; String.make 65 'a' ];
  Alcotest.check_raises "result line refuses a bad name" (Invalid_argument "bad metric name a b")
    (fun () -> ignore (Report.result_line (Report.tally ()) [ Report.metric "a b" "s" 1. ]))

let reply outcome =
  Splice.Serve_protocol.reply ~req:1 ~kind:"fuzz" ~outcome
    ~fields:[ ("digest", Splice.Json.String "0x0") ]
    ()

let refused_replies () =
  let t = Report.tally () in
  let count ?(correct = fun _ -> true) outcome =
    Report.count_reply t ~kind:"fuzz" ~correct (reply outcome);
    (t.attempted, t.failed)
  in
  let counts = Alcotest.(check (pair int int)) in
  counts "ok" (1, 0) (count Splice.Serve_protocol.Ok_);
  counts "overloaded" (2, 1) (count Splice.Serve_protocol.Overloaded);
  counts "rejected" (3, 2) (count Splice.Serve_protocol.Rejected);
  counts "ok but wrong" (4, 3) (count ~correct:(fun _ -> false) Splice.Serve_protocol.Ok_);
  Alcotest.(check (float 1e-12)) "error rate" 0.75 (Report.error_rate t)

let pinned_digest () =
  let rows = Splice.Cycles.measure () in
  let good = Report.tally () in
  Alcotest.(check int) "cycles per grid" 3101 (Gates.check_grid good rows);
  Alcotest.(check int) "pinned digest holds" 0 (Report.exit_code good);
  let bad = Report.tally () in
  ignore (Gates.check_grid ~pinned:(Int64.logxor Gates.eval_digest 1L) bad rows);
  Alcotest.(check int) "corrupted digest fails the run" 1 (Report.exit_code bad);
  let line = Report.result_line bad [ Report.metric "setup_s" "s" 0.5 ] in
  check "result says incorrect" true
    (String.starts_with ~prefix:"{\"correct\": false, \"attempted\": 1, \"failed\": 1" line)

let cli_digest () =
  Alcotest.(check (option int64)) "parsed" (Some 0x4ba64b2b7e4589dfL)
    (Gates.cli_fuzz_digest "splice fuzz: seed=42\nOK: ...\ndigest 0x4ba64b2b7e4589df\n");
  Alcotest.(check (option int64)) "absent" None (Gates.cli_fuzz_digest "FAIL\n")

let paired () =
  (* side 0 costs 5 then 3, side 1 costs 4 then 6: minima 3 and 4 *)
  let seq l = let r = ref l in fun () -> match !r with x :: t -> r := t; x | [] -> 99. in
  let best = Stat.paired_minima ~reps:2 [| seq [ 5.; 3. ]; seq [ 4.; 6. ] |] in
  Alcotest.(check (array (float 0.))) "minima" [| 3.; 4. |] best;
  Alcotest.(check (float 1e-9)) "pct" 50. (Stat.pct_over 3. 2.)

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "highest percentile with 10 beyond" `Quick tail_rule;
          Alcotest.test_case "self time of nested spans" `Quick self_time;
          Alcotest.test_case "metric names" `Quick names;
          Alcotest.test_case "paired minima" `Quick paired;
        ] );
      ( "gates",
        [
          Alcotest.test_case "refused or overloaded replies fail" `Quick refused_replies;
          Alcotest.test_case "corrupted pinned digest fails the run" `Quick pinned_digest;
          Alcotest.test_case "CLI fuzz digest" `Quick cli_digest;
        ] );
    ]
