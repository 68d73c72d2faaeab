(* Observability-layer tests: metrics registry, JSON round-trip of the
   Chrome-trace export, kernel stats, SIS transaction counting against the
   recorder's transaction stream, the per-layer cycle breakdown of the
   Fig 9.2 harness, and a VCD identifier-allocation regression. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    t "counter find-or-create shares the record" (fun () ->
        let m = Metrics.create () in
        let a = Metrics.counter m "a/b" in
        Metrics.incr a;
        Metrics.add a 3;
        (* a second registration under the same name is the same record *)
        Metrics.incr (Metrics.counter m "a/b");
        check_int "count" 5 (Metrics.count a);
        check_int "by name" 5 (Metrics.counter_value m "a/b");
        check_int "missing counters read 0" 0 (Metrics.counter_value m "nope"));
    t "histogram buckets, overflow, and moments" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram ~limits:[| 1; 2; 4 |] m "h" in
        List.iter (Metrics.observe h) [ 1; 2; 3; 4; 5; 100 ];
        Alcotest.(check (list (pair (option int) int)))
          "buckets"
          [ (Some 1, 1); (Some 2, 1); (Some 4, 2); (None, 2) ]
          (Metrics.bucket_counts h);
        check_int "observations" 6 (Metrics.observations h);
        check_int "total" 115 (Metrics.total h);
        check_int "min" 1 (Metrics.min_value h);
        check_int "max" 100 (Metrics.max_value h));
    t "non-increasing histogram limits rejected" (fun () ->
        let m = Metrics.create () in
        match Metrics.histogram ~limits:[| 4; 4 |] m "bad" with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ());
    t "gauges" (fun () ->
        let m = Metrics.create () in
        let g = Metrics.gauge m "depth" in
        Metrics.set g 7;
        check_int "level" 7 (Metrics.level g);
        check_bool "find-or-create" true (Metrics.gauge m "depth" == g));
  ]

(* ------------------------------------------------------------------ *)
(* JSON + Chrome-trace round trip                                      *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    t "print/parse round trip" (fun () ->
        let v =
          Json.Obj
            [
              ("s", Json.String "a\"b\\c\n\t");
              ("n", Json.Int (-42));
              ("f", Json.Float 1.5);
              ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
            ]
        in
        check_bool "equal after round trip" true
          (Json.of_string_exn (Json.to_string v) = v));
    t "parse errors are reported, not raised" (fun () ->
        (match Json.of_string "[1," with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected parse error");
        match Json.of_string "{\"a\":1} trailing" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected trailing-garbage error");
    t "chrome trace round-trips and is well-formed" (fun () ->
        let r = Recorder.create () in
        let plb = Recorder.intern r "bus/plb" in
        let wr = Recorder.intern r "sis/write" in
        let at cycle f =
          Recorder.set_now r cycle;
          f ()
        in
        at 4 (fun () -> Recorder.txn_begin r ~subject:plb ~words:1);
        at 5 (fun () ->
            Recorder.record r Recorder.Txn_begin ~subject:wr ~arg:3);
        at 9 (fun () -> Recorder.txn_end r ~subject:wr);
        at 10 (fun () -> Recorder.txn_end r ~subject:plb);
        (* a begin whose end never came is no span *)
        at 11 (fun () -> Recorder.txn_begin r ~subject:plb ~words:2);
        let s = Export.chrome_trace_string [ ("impl", r) ] in
        let events =
          match Json.to_list (Json.of_string_exn s) with
          | Some l -> l
          | None -> Alcotest.fail "trace is not a JSON array"
        in
        let str k e = Option.bind (Json.member k e) Json.to_str in
        let int k e = Option.bind (Json.member k e) Json.to_int in
        Alcotest.(check (list (pair (option string) (option string))))
          "one named span per completed transaction"
          [ (Some "impl/sis/write", Some "write id=3");
            (Some "impl/bus/plb", Some "1 word(s)") ]
          (List.map (fun e -> (str "cat" e, str "name" e)) events);
        Alcotest.(check (list (pair (option int) (option int))))
          "ts/dur in cycles"
          [ (Some 5, Some 4); (Some 4, Some 6) ]
          (List.map (fun e -> (int "ts" e, int "dur" e)) events);
        Alcotest.(check (list (option int)))
          "one thread per track" [ Some 1; Some 0 ]
          (List.map (int "tid") events);
        List.iter
          (fun e ->
            Alcotest.(check (option string)) "complete event" (Some "X")
              (str "ph" e);
            Alcotest.(check (option int)) "one process" (Some 0) (int "pid" e))
          events);
  ]

(* ------------------------------------------------------------------ *)
(* Kernel stats + timeout payload                                      *)
(* ------------------------------------------------------------------ *)

(* a kernel of one counter component and one check; the comb must
   actually change a signal: iterations count productive delta passes, so
   a pure nop would record 0. The comb reads only the counter its own seq
   advances, so the seq announces every step *)
let counting_kernel obs =
  let k = Kernel.create ~obs () in
  let s = Signal.create 8 in
  let n = ref 0 in
  let comp = ref None in
  let c =
    Component.make
      ~comb:([], fun () -> Signal.set_int s ((!n + 1) land 0xff))
      ~seq:(fun () ->
        incr n;
        Option.iter Component.rearm !comp)
      "counter"
  in
  comp := Some c;
  Kernel.add k c;
  Kernel.add_check k "noop" (fun _ -> ());
  k

let kernel_tests =
  [
    t "stats mirror the run and the sim/* metrics" (fun () ->
        let k = counting_kernel (Obs.create ()) in
        Kernel.run k 10;
        let s = Kernel.stats k in
        check_int "cycles" 10 s.Kernel.cycles;
        check_int "one check per cycle" 10 s.Kernel.checks_run;
        check_bool "at least one comb iteration per cycle" true
          (s.Kernel.comb_iters >= 10);
        let m = Obs.metrics (Kernel.obs k) in
        check_int "sim/cycles counter" 10 (Metrics.counter_value m "sim/cycles");
        check_int "sim/checks_run counter" 10
          (Metrics.counter_value m "sim/checks_run");
        match Metrics.find_histogram m "sim/comb_iters" with
        | Some h -> check_int "one observation per cycle" 10 (Metrics.observations h)
        | None -> Alcotest.fail "sim/comb_iters histogram missing");
    t "Timeout carries the elapsed cycle count" (fun () ->
        let k = Kernel.create () in
        Kernel.run k 3 (* pre-existing cycles must not leak into elapsed *);
        match Kernel.run_until ~max:5 ~what:"never" k (fun () -> false) with
        | _ -> Alcotest.fail "expected timeout"
        | exception Kernel.Timeout { cycle; elapsed; waiting_for } ->
            check_int "elapsed counts only this call" 5 elapsed;
            check_int "cycle is absolute" 8 cycle;
            Alcotest.(check string) "what" "never" waiting_for);
  ]

(* ------------------------------------------------------------------ *)
(* Kernel metric views                                                 *)
(* ------------------------------------------------------------------ *)

let hist_summary h =
  ( Metrics.observations h,
    Metrics.total h,
    Metrics.min_value h,
    Metrics.max_value h,
    Metrics.bucket_counts h )

(* The sim/* views must equal the totals of the runs the context observed
   (one [Kernel.stats] per run, summed), and the [sim/comb_iters]
   histogram must equal one built eagerly from the [Sched_pass] events (one
   per settle, the argument its pass count) — so every settle must still
   be in the ring. *)
let check_views name obs runs =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 runs in
  let m = Obs.metrics obs in
  let c metric = Metrics.counter_value m metric in
  let cycles = sum (fun s -> s.Kernel.cycles) in
  check_int (name ^ ": sim/cycles") cycles (c "sim/cycles");
  check_int (name ^ ": sim/checks_run") (sum (fun s -> s.Kernel.checks_run))
    (c "sim/checks_run");
  check_int (name ^ ": sim/comb_evals") (sum (fun s -> s.Kernel.comb_evals))
    (c "sim/comb_evals");
  let h = Option.get (Metrics.find_histogram m "sim/comb_iters") in
  check_int (name ^ ": comb_iters count") cycles (Metrics.observations h);
  check_int (name ^ ": comb_iters sum") (sum (fun s -> s.Kernel.comb_iters))
    (Metrics.total h);
  let r = Option.get (Obs.recorder obs) in
  check_bool (name ^ ": ring kept every settle") true
    (Recorder.total r <= Recorder.capacity r);
  let eager =
    Metrics.histogram ~limits:[| 1; 2; 3; 4; 6; 8; 16; 32; 64 |]
      (Metrics.create ()) "eager"
  in
  List.iter
    (fun (e : Recorder.event) ->
      if e.Recorder.e_kind = Recorder.Sched_pass then
        Metrics.observe eager e.Recorder.e_arg)
    (Recorder.events r);
  check_bool (name ^ ": comb_iters min/max/buckets") true
    (hist_summary h = hist_summary eager)

(* the deterministic part of [Kernel.stats]; the rest is wall time *)
let counts (s : Kernel.stats) =
  (s.Kernel.cycles, s.Kernel.comb_iters, s.Kernel.comb_evals, s.Kernel.checks_run)

let views_tests =
  let grid host = List.iter (fun s -> ignore (Interpolator.run host s)) Interp_scenarios.all in
  let scheds = [ ("event", `Event); ("sweep", `Sweep); ("compiled", `Compiled) ] in
  [
    t "sim/* equal Kernel.stats under every scheduler, summed over replays" (fun () ->
        List.iter
          (fun (name, sched) ->
            (* room for both runs' events *)
            let obs = Obs.create ~ring:(1 lsl 17) () in
            let host = Interpolator.make_host ~obs ~sched Interpolator.Splice_plb_dma in
            let reuse = Host.prepare_reuse host in
            grid host;
            let fresh = Kernel.stats (Host.kernel host) in
            check_views name obs [ fresh ];
            Host.reset ~sched host reuse;
            grid host;
            let replay = Kernel.stats (Host.kernel host) in
            check_bool (name ^ ": replay stats equal a fresh build's") true
              (counts replay = counts fresh);
            check_views (name ^ " replay") obs [ fresh; replay ])
          scheds);
    t "a replay records the first run's events again" (fun () ->
        List.iter
          (fun (name, sched) ->
            (* room for both runs' events *)
            let obs = Obs.create ~ring:(1 lsl 17) () in
            let host = Interpolator.make_host ~obs ~sched Interpolator.Splice_plb_dma in
            let reuse = Host.prepare_reuse host in
            let r = Option.get (Obs.recorder obs) in
            let built = Recorder.total r in
            grid host;
            let after_first = Recorder.events r in
            let n = Recorder.total r - built in
            check_bool (name ^ ": the run recorded") true (n > 0);
            Host.reset ~sched host reuse;
            check_int (name ^ ": reset keeps the recording") (built + n)
              (Recorder.total r);
            grid host;
            check_int (name ^ ": the replay adds as many") (built + (2 * n))
              (Recorder.total r);
            let events = Recorder.events r in
            let drop k l = List.filteri (fun i _ -> i >= k) l in
            check_bool (name ^ ": nothing dropped") true
              (List.length events = built + (2 * n));
            check_bool (name ^ ": first run kept") true
              (List.filteri (fun i _ -> i < built + n) events = after_first);
            check_bool (name ^ ": replay events equal the first run's") true
              (drop (built + n) events = drop built after_first))
          scheds);
    t "Obs.merge sums the views" (fun () ->
        let runs =
          List.map
            (fun (_, sched) ->
              let host = Interpolator.make_host ~sched Interpolator.Splice_fcb in
              grid host;
              (Host.obs host, Kernel.stats (Host.kernel host)))
            scheds
        in
        let agg = Obs.create ~recording:false () in
        List.iter (fun (o, _) -> Obs.merge ~into:agg o) runs;
        let m = Obs.metrics agg in
        let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 runs in
        check_int "sim/cycles" (sum (fun s -> s.Kernel.cycles)) (Metrics.counter_value m "sim/cycles");
        check_int "sim/checks_run" (sum (fun s -> s.Kernel.checks_run))
          (Metrics.counter_value m "sim/checks_run");
        check_int "sim/comb_evals" (sum (fun s -> s.Kernel.comb_evals))
          (Metrics.counter_value m "sim/comb_evals");
        let h = Option.get (Metrics.find_histogram m "sim/comb_iters") in
        check_int "comb_iters count" (sum (fun s -> s.Kernel.cycles)) (Metrics.observations h);
        check_int "comb_iters sum" (sum (fun s -> s.Kernel.comb_iters)) (Metrics.total h));
    t "a context shared by two kernels sums their views" (fun () ->
        let obs = Obs.create () in
        let k1 = counting_kernel obs and k2 = counting_kernel obs in
        let m = Obs.metrics obs in
        let cycles () = Metrics.counter_value m "sim/cycles" in
        Kernel.run k1 3;
        check_int "first kernel" 3 (cycles ());
        Kernel.run k2 5;
        Kernel.run k1 2;
        check_int "both kernels, reads interleaved" 10 (cycles ());
        check_int "checks" 10 (Metrics.counter_value m "sim/checks_run");
        let evals = (Kernel.stats k1).Kernel.comb_evals + (Kernel.stats k2).Kernel.comb_evals in
        check_int "evals" evals (Metrics.counter_value m "sim/comb_evals");
        let h = Option.get (Metrics.find_histogram m "sim/comb_iters") in
        check_int "one observation per cycle" 10 (Metrics.observations h));
    t "views behave like eager metrics across resets" (fun () ->
        let obs = Obs.create () in
        let k = counting_kernel obs in
        let m = Obs.metrics obs in
        let cycles () = Metrics.counter_value m "sim/cycles" in
        Kernel.run k 3;
        Kernel.reset k;
        check_int "a kernel reset keeps what was recorded" 3 (cycles ());
        Kernel.run k 4;
        check_int "and the next run adds to it" 7 (cycles ()));
  ]

(* ------------------------------------------------------------------ *)
(* SIS transaction counting vs the span stream                         *)
(* ------------------------------------------------------------------ *)

let spec_of decls =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
    ("%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n" ^ decls)

let run_recorded decls ~args =
  let spec = spec_of decls in
  let obs = Obs.create () in
  let host =
    Host.create ~obs spec ~behaviors:(fun _ ->
        Stub_model.behavior ~cycles:2 (fun _ -> [ 0L ]))
  in
  let _ = Host.call host ~func:(List.hd spec.Spec.funcs).Spec.name ~args in
  obs

let recorded obs =
  match Obs.recorder obs with
  | Some r -> Query.of_recorder r
  | None -> Alcotest.fail "no flight recorder"

let sis_tests =
  [
    t "sis/transactions counts one word per IO_DONE cycle" (fun () ->
        (* 4 data words + 1 ack read = 5 completions, as the waveform tests
           established independently *)
        let obs = run_recorded "void f(int*:4 xs);" ~args:[ ("xs", [ 1L; 2L; 3L; 4L ]) ] in
        let m = Obs.metrics obs in
        check_int "transactions" 5 (Metrics.counter_value m "sis/transactions");
        check_int "writes" 4 (Metrics.counter_value m "sis/writes");
        check_int "reads" 1 (Metrics.counter_value m "sis/reads"));
    t "span stream matches the transaction counters" (fun () ->
        let obs = run_recorded "void f(int*:4 xs);" ~args:[ ("xs", [ 1L; 2L; 3L; 4L ]) ] in
        let d = recorded obs in
        let spans track =
          List.filter
            (fun ((b : Query.event), _) -> b.Query.ev_subject = track)
            (Query.transactions d)
        in
        check_int "four write pairs" 4 (List.length (spans "sis/write"));
        check_int "one read pair" 1 (List.length (spans "sis/read"));
        check_bool "write spans carry the FUNC_ID" true
          (List.for_all
             (fun ((b : Query.event), _) -> b.Query.ev_value = 1)
             (spans "sis/write"));
        let sis_ends =
          List.filter
            (fun (e : Query.event) ->
              String.starts_with ~prefix:"sis/" e.Query.ev_subject)
            (Query.filter ~kinds:[ Recorder.Txn_end ] d)
        in
        check_int "one Txn_end per counted transaction"
          (Metrics.counter_value (Obs.metrics obs) "sis/transactions")
          (List.length sis_ends);
        check_int "one driver call" 1 (List.length (spans "driver/f")));
    t "Obs.none hosts record nothing" (fun () ->
        let spec = spec_of "void f(int x);" in
        let host =
          Host.create ~obs:Obs.none spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:2 (fun _ -> [ 0L ]))
        in
        let _ = Host.call host ~func:"f" ~args:[ ("x", [ 1L ]) ] in
        let obs = Host.obs host in
        check_bool "inactive" false (Obs.active obs);
        check_int "no transactions recorded" 0
          (Metrics.counter_value (Obs.metrics obs) "sis/transactions");
        check_bool "no recorder" true (Obs.recorder obs = None));
  ]

(* ------------------------------------------------------------------ *)
(* Fig 9.2 breakdown                                                   *)
(* ------------------------------------------------------------------ *)

let breakdown_tests =
  [
    t "instrumented measurement reproduces Fig 9.2 exactly" (fun () ->
        let plain = Cycles.measure () in
        let detailed = Cycles.measure_detailed () in
        List.iter2
          (fun (r : Cycles.row) (d : Cycles.detailed_row) ->
            Alcotest.(check (list (pair int int)))
              (Interpolator.impl_name r.Cycles.impl)
              r.Cycles.per_scenario d.Cycles.row.Cycles.per_scenario)
          plain detailed);
    t "per-layer budgets sum to the scenario's cycles" (fun () ->
        let detailed = Cycles.measure_detailed () in
        List.iter
          (fun (d : Cycles.detailed_row) ->
            List.iter2
              (fun (id, cycles) (id', b) ->
                check_int "ids aligned" id id';
                check_int
                  (Printf.sprintf "%s scenario %d"
                     (Interpolator.impl_name d.Cycles.row.Cycles.impl)
                     id)
                  cycles
                  (Cycles.breakdown_total b))
              d.Cycles.row.Cycles.per_scenario d.Cycles.breakdowns)
          detailed);
    t "Splice-PLB scenario 1 budget matches measure's total" (fun () ->
        let plain = Cycles.measure () in
        let detailed = Cycles.measure_detailed () in
        let total =
          let r =
            List.find
              (fun (r : Cycles.row) -> r.Cycles.impl = Interpolator.Splice_plb_simple)
              plain
          in
          List.assoc 1 r.Cycles.per_scenario
        in
        let d =
          List.find
            (fun (d : Cycles.detailed_row) ->
              d.Cycles.row.Cycles.impl = Interpolator.Splice_plb_simple)
            detailed
        in
        let b = List.assoc 1 d.Cycles.breakdowns in
        check_int "budget sums to Fig 9.2's cell" total
          (Cycles.breakdown_total b);
        check_bool "stats report carries the budget counters" true
          (let report = Cycles.stats_report detailed in
           let contains needle = Astring_contains.contains report needle in
           contains "breakdown/calc" && contains "breakdown/bus"
           && contains "breakdown/driver" && contains "breakdown/idle"));
    t "traced measurement exports a valid Chrome trace" (fun () ->
        let detailed = Cycles.measure_detailed () in
        let events =
          match Json.to_list (Json.of_string_exn (Cycles.chrome_trace_string detailed)) with
          | Some l -> l
          | None -> Alcotest.fail "not a JSON array"
        in
        check_bool "has events" true (List.length events > 0);
        List.iter
          (fun e ->
            (match Option.bind (Json.member "ph" e) Json.to_str with
            | Some "X" -> ()
            | _ -> Alcotest.fail "bad ph");
            check_bool "integer ts" true
              (Option.bind (Json.member "ts" e) Json.to_int <> None))
          events;
        check_int "one process per implementation"
          (List.length detailed)
          (List.length
             (List.sort_uniq compare
                (List.map (fun e -> Json.member "pid" e) events))));
    t "every Fig 9.2 implementation's recorder drops nothing" (fun () ->
        List.iter
          (fun (d : Cycles.detailed_row) ->
            match Obs.recorder d.Cycles.obs with
            | None -> Alcotest.fail "no flight recorder"
            | Some r ->
                check_bool
                  (Printf.sprintf "%s: %d events fit a %d ring"
                     (Interpolator.impl_name d.Cycles.row.Cycles.impl)
                     (Recorder.total r) (Recorder.capacity r))
                  true
                  (Recorder.total r <= Recorder.capacity r))
          (Cycles.measure_detailed ()));
    t "eval dump has SIS and driver latency rows" (fun () ->
        List.iter
          (fun (d : Cycles.detailed_row) ->
            let name = Interpolator.impl_name d.Cycles.row.Cycles.impl in
            let dump =
              match Obs.recorder d.Cycles.obs with
              | Some r -> Query.of_string (Recorder.dump_string r)
              | None -> Alcotest.fail "no flight recorder"
            in
            match dump with
            | Error e -> Alcotest.fail e
            | Ok dump ->
                let tracks =
                  List.map (fun r -> r.Query.lr_track) (Query.latency_rows dump)
                in
                let has prefix =
                  List.exists (fun tr -> String.starts_with ~prefix tr) tracks
                in
                check_bool (name ^ ": sis/write row") true
                  (List.mem "sis/write" tracks);
                check_bool (name ^ ": driver/<func> row") true (has "driver/");
                check_bool (name ^ ": bus/<name> row") true (has "bus/"))
          (Cycles.measure_detailed ()));
  ]

(* ------------------------------------------------------------------ *)
(* VCD identifier allocation                                           *)
(* ------------------------------------------------------------------ *)

let vcd_tests =
  [
    t "200-signal VCD header declares 200 distinct ids" (fun () ->
        let signals =
          List.init 200 (fun i -> Signal.create ~name:(Printf.sprintf "s%d" i) 1)
        in
        let header =
          Wave.vcd (Wave.create (Kernel.create ()) signals) ~module_name:"m"
        in
        (* $var wire <width> <id> <name> $end *)
        let ids = ref [] in
        String.split_on_char '\n' header
        |> List.iter (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | "$var" :: "wire" :: _w :: id :: _name :: _ -> ids := id :: !ids
               | _ -> ());
        check_int "200 declarations" 200 (List.length !ids);
        check_int "all ids distinct" 200
          (List.length (List.sort_uniq compare !ids));
        List.iter
          (fun id ->
            String.iter
              (fun ch ->
                check_bool "printable ASCII id" true (ch >= '!' && ch <= '~'))
              id)
          !ids);
  ]

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* The chunked ring against a list model: record [n] synthetic events
   (event [j] at cycle [j / 3], its kind, subject and argument derived
   from [j]), then the window read back — directly and through a parsed
   dump — must be the model's last [capacity] events. *)
let ring_kinds =
  Recorder.[| Signal_change; Txn_begin; Txn_end; Sched_pass; Comp_eval |]

let model_event j =
  let kind = ring_kinds.(j mod Array.length ring_kinds) in
  let arg =
    match kind with
    | Recorder.Txn_end -> 0
    | Recorder.Comp_eval -> 1
    | _ -> j
  in
  (j / 3, kind, [| "a"; "b"; "c" |].(j mod 3), arg)

let record_model r ids n =
  for j = 0 to n - 1 do
    let _, kind, _, arg = model_event j in
    Recorder.set_now r (j / 3);
    Recorder.record r kind ~subject:ids.(j mod 3) ~arg
  done

let window_matches r ~capacity n =
  let keep = min n capacity in
  let model = List.init keep (fun i -> model_event (n - keep + i)) in
  let evs =
    List.map
      (fun (e : Recorder.event) ->
        Recorder.(e.e_cycle, e.e_kind, e.e_subject, e.e_arg))
      (Recorder.events r)
  in
  let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
  let dumped =
    List.map
      (fun (e : Query.event) -> Query.(e.ev_cycle, e.ev_kind, e.ev_subject, e.ev_value))
      d.Query.d_events
  in
  evs = model && dumped = model
  && Recorder.total r = n
  && d.Query.d_total = n
  && d.Query.d_dropped = n - keep
  && d.Query.d_ring = capacity

(* capacities below, at and above one 512-event chunk (3 rounds to 4, 513
   to two chunks); counts biased to every chunk and wrap boundary *)
let arb_ring =
  let open QCheck.Gen in
  let count cap =
    let chunk = min cap 512 in
    let edges =
      List.concat_map
        (fun k -> [ (k * chunk) - 1; k * chunk; (k * chunk) + 1 ])
        (List.init ((3 * cap / chunk) + 1) Fun.id)
      |> List.filter (fun n -> n >= 0)
    in
    frequency [ (3, oneofl edges); (1, int_bound ((3 * cap) + 2)) ]
  in
  let gen =
    oneofl [ 1; 3; 512; 513; 8192 ] >>= fun requested ->
    let rec pow2 k = if k >= requested then k else pow2 (2 * k) in
    pair (return requested) (count (pow2 1))
  in
  QCheck.make ~print:QCheck.Print.(pair int int) gen

let ring_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"chunked ring = last-capacity list model"
       arb_ring (fun (requested, n) ->
         let r = Recorder.create ~capacity:requested () in
         let ids = Array.map (Recorder.intern r) [| "a"; "b"; "c" |] in
         record_model r ids n;
         window_matches r ~capacity:(Recorder.capacity r) n))

let recorder_tests =
  [
    t "ring wraparound keeps the last capacity events" (fun () ->
        let r = Recorder.create ~capacity:4 () in
        let s = Recorder.intern r "s" in
        for i = 1 to 6 do
          Recorder.set_now r i;
          Recorder.signal_change r ~subject:s ~value:i
        done;
        check_int "total counts every record" 6 (Recorder.total r);
        let evs = Recorder.events r in
        check_int "window is the capacity" 4 (List.length evs);
        Alcotest.(check (list int))
          "last four values, oldest first" [ 3; 4; 5; 6 ]
          (List.map (fun (e : Recorder.event) -> e.Recorder.e_arg) evs);
        Alcotest.(check (list int))
          "cycles stamped" [ 3; 4; 5; 6 ]
          (List.map (fun (e : Recorder.event) -> e.Recorder.e_cycle) evs));
    t "intern is find-or-create; subject_name inverts" (fun () ->
        let r = Recorder.create ~capacity:4 () in
        let a = Recorder.intern r "a" and b = Recorder.intern r "b" in
        check_bool "distinct ids" true (a <> b);
        check_int "stable" a (Recorder.intern r "a");
        Alcotest.(check string) "inverse" "b" (Recorder.subject_name r b));
    t "a kernel reset keeps the window and restamps from cycle 0" (fun () ->
        let obs = Obs.create ~ring:64 () in
        let k = counting_kernel obs in
        Kernel.run k 3;
        let r = Option.get (Obs.recorder obs) in
        let before = Recorder.events r in
        check_bool "the run recorded" true (before <> []);
        Kernel.reset k;
        check_bool "window kept" true (Recorder.events r = before);
        Recorder.txn_begin r ~subject:(Recorder.intern r "probe") ~words:1;
        let last = List.nth (Recorder.events r) (List.length before) in
        check_int "stamped cycle 0" 0 last.Recorder.e_cycle);
    t "check-failure dump ends at the violation; window exact" (fun () ->
        let obs = Obs.create ~ring:8 () in
        let k = Kernel.create ~obs () in
        let s = Signal.create ~name:"pulse" 1 in
        Kernel.add k
          (Component.make
             ~seq:(fun () -> Signal.set_next_bool s (not (Signal.get_bool s)))
             "toggler");
        Kernel.add_check k "watch" (fun cycle ->
            if cycle = 5 then Kernel.check_fail ~cycle ~check:"watch" "boom");
        match Kernel.run k 10 with
        | () -> Alcotest.fail "expected Check_failed"
        | exception Kernel.Check_failed { message; _ } ->
            Signal.clear_pending ();
            let r = Option.get (Obs.recorder obs) in
            let d =
              match
                Query.of_string
                  (Recorder.dump_string ~context:message
                     ~metrics:(Obs.metrics obs) r)
              with
              | Ok d -> d
              | Error e -> Alcotest.fail e
            in
            Alcotest.(check (option string))
              "context is the failure message" (Some "boom") d.Query.d_context;
            check_int "ring size" 8 d.Query.d_ring;
            check_int "window is exactly min(total, ring)"
              (min d.Query.d_total 8)
              (List.length d.Query.d_events);
            check_int "dropped = total - window"
              (max 0 (d.Query.d_total - 8))
              d.Query.d_dropped;
            check_bool "this run wrapped the ring" true (d.Query.d_dropped > 0);
            (match Query.last 2 d.Query.d_events with
            | [ ev; fl ] ->
                (* a passing check records nothing: the failing tick's
                   settle is the event before the failure *)
                check_bool "the tick's settle immediately before the failure" true
                  (ev.Query.ev_kind = Recorder.Sched_pass
                  && ev.Query.ev_cycle = 5
                  && fl.Query.ev_kind = Recorder.Check_fail);
                Alcotest.(check string) "check name" "watch" fl.Query.ev_subject;
                Alcotest.(check (option string))
                  "failure message rode along" (Some "boom") fl.Query.ev_message;
                check_int "failing cycle" 5 fl.Query.ev_cycle
            | _ -> Alcotest.fail "fewer than two events");
            check_bool "signal transitions in the window" true
              (Query.filter ~subject:"pulse"
                 ~kinds:[ Recorder.Signal_change ] d
              <> []);
            check_bool "metrics snapshot embedded" true
              (List.mem_assoc "sim/cycles" d.Query.d_counters));
    t "a version 1 dump is refused" (fun () ->
        Alcotest.(check (result reject string))
          "error" (Error "unsupported dump version 1")
          (Result.map ignore
             (Query.of_string
                {|{"splice_dump":1,"ring":4,"total":1,"now":0,"events":[{"c":0,"k":"chk","s":"watch"}]}|})));
    t "~recording:false and Obs.none carry no recorder" (fun () ->
        check_bool "opt-out" true
          (Obs.recorder (Obs.create ~recording:false ()) = None);
        check_bool "none" true (Obs.recorder Obs.none = None));
    ring_property;
  ]

(* ------------------------------------------------------------------ *)
(* Percentiles from bucketed counts                                    *)
(* ------------------------------------------------------------------ *)

let percentile_tests =
  [
    t "ranks landing exactly on bucket edges" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram ~limits:[| 1; 2; 4 |] m "h" in
        List.iter (Metrics.observe h) [ 1; 2; 3; 4 ];
        check_int "p25 -> first bucket" 1 (Metrics.percentile h 0.25);
        check_int "p50 -> second bucket edge" 2 (Metrics.percentile h 0.50);
        check_int "p51 -> third bucket" 4 (Metrics.percentile h 0.51);
        check_int "p100 = observed max" 4 (Metrics.percentile h 1.0));
    t "overflow-bucket ranks report the observed max" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram ~limits:[| 1; 2 |] m "h" in
        List.iter (Metrics.observe h) [ 1; 100 ];
        check_int "p50 still in range" 1 (Metrics.percentile h 0.5);
        check_int "p100 -> vmax, not a bucket bound" 100
          (Metrics.percentile h 1.0));
    t "clamped to the observed max inside a wide bucket" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram ~limits:[| 16 |] m "h" in
        Metrics.observe h 3;
        check_int "min(limit, vmax)" 3 (Metrics.percentile h 0.5));
    t "empty histogram and q clamping" (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram ~limits:[| 1 |] m "h" in
        check_int "empty -> 0" 0 (Metrics.percentile h 0.5);
        Metrics.observe h 1;
        check_int "q = 0 clamps to rank 1" 1 (Metrics.percentile h 0.0);
        check_int "q > 1 clamps to rank n" 1 (Metrics.percentile h 2.0));
    t "percentile_of over raw buckets with explicit overflow" (fun () ->
        check_int "overflow rank" 99
          (Metrics.percentile_of ~limits:[| 4 |] ~buckets:[| 1; 1 |] ~n:2
             ~vmax:99 1.0);
        check_int "in-range rank" 4
          (Metrics.percentile_of ~limits:[| 4 |] ~buckets:[| 1; 1 |] ~n:2
             ~vmax:99 0.5));
  ]

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let openmetrics_tests =
  [
    t "golden exposition of a mixed registry" (fun () ->
        let m = Metrics.create () in
        Metrics.add (Metrics.counter m "sim/cycles") 12;
        Metrics.set (Metrics.gauge m "queue depth") 3;
        let h = Metrics.histogram ~limits:[| 1; 2 |] m "bus/plb/burst" in
        List.iter (Metrics.observe h) [ 1; 2; 5 ];
        Alcotest.(check string) "exact text"
          "# TYPE splice_sim_cycles counter\n\
           splice_sim_cycles_total 12\n\
           # TYPE splice_queue_depth gauge\n\
           splice_queue_depth 3\n\
           # TYPE splice_bus_plb_burst histogram\n\
           splice_bus_plb_burst_bucket{le=\"1\"} 1\n\
           splice_bus_plb_burst_bucket{le=\"2\"} 2\n\
           splice_bus_plb_burst_bucket{le=\"+Inf\"} 3\n\
           splice_bus_plb_burst_count 3\n\
           splice_bus_plb_burst_sum 8\n\
           # EOF\n"
          (Openmetrics.of_metrics m));
    t "every line is a family declaration, a sample, or the EOF" (fun () ->
        let m = Metrics.create () in
        Metrics.incr (Metrics.counter m "a/b");
        ignore (Metrics.histogram m "c");
        let lines =
          String.split_on_char '\n' (Openmetrics.of_metrics m)
          |> List.filter (fun l -> l <> "")
        in
        check_bool "non-empty" true (List.length lines > 0);
        Alcotest.(check string) "terminator" "# EOF"
          (List.nth lines (List.length lines - 1));
        List.iter
          (fun l ->
            let is_comment = String.length l >= 1 && l.[0] = '#' in
            let is_sample =
              match String.index_opt l ' ' with
              | Some i ->
                  String.length l > i + 1
                  && String.for_all
                       (function
                         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':'
                         | '{' | '}' | '"' | '=' | '+' ->
                             true
                         | _ -> false)
                       (String.sub l 0 i)
              | None -> false
            in
            check_bool ("well-formed: " ^ l) true (is_comment || is_sample))
          lines);
    t "sanitize prefixes and replaces non-name characters" (fun () ->
        Alcotest.(check string) "slashes" "splice_bus_plb_x"
          (Openmetrics.sanitize "bus/plb/x");
        Alcotest.(check string) "spaces and dashes" "splice_a_b_c"
          (Openmetrics.sanitize "a b-c"));
    t "render golden exposition over raw snapshot data" (fun () ->
        (* the raw-data entry point (used by the trace query engine and the
           coverage engine) must produce the same well-terminated exposition
           as [of_metrics] — pinned exactly, terminator included *)
        Alcotest.(check string) "exact text"
          "# TYPE splice_fuzz_iterations counter\n\
           splice_fuzz_iterations_total 7\n\
           # TYPE splice_cover_bins_hit gauge\n\
           splice_cover_bins_hit 3\n\
           # TYPE splice_lat histogram\n\
           splice_lat_bucket{le=\"2\"} 1\n\
           splice_lat_bucket{le=\"+Inf\"} 2\n\
           splice_lat_count 2\n\
           splice_lat_sum 9\n\
           # EOF\n"
          (Openmetrics.render
             ~counters:[ ("fuzz/iterations", 7) ]
             ~gauges:[ ("cover/bins_hit", 3) ]
             ~histograms:
               [
                 ( "lat",
                   {
                     Openmetrics.om_limits = [| 2 |];
                     om_buckets = [| 1; 1 |];
                     om_sum = 9;
                     om_count = 2;
                   } );
               ]));
    t "render of an empty snapshot is just the terminator" (fun () ->
        Alcotest.(check string) "eof only" "# EOF\n"
          (Openmetrics.render ~counters:[] ~gauges:[] ~histograms:[]));
  ]

(* ------------------------------------------------------------------ *)
(* Trace query engine                                                  *)
(* ------------------------------------------------------------------ *)

let query_tests =
  [
    t "filter by subject, kind and cycle range" (fun () ->
        let r = Recorder.create ~capacity:32 () in
        let a = Recorder.intern r "a" and b = Recorder.intern r "b" in
        Recorder.set_now r 1;
        Recorder.signal_change r ~subject:a ~value:1;
        Recorder.set_now r 2;
        Recorder.signal_change r ~subject:b ~value:2;
        Recorder.set_now r 3;
        Recorder.comp_eval r ~subject:a;
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        check_int "by subject" 2 (List.length (Query.filter ~subject:"a" d));
        check_int "by kind" 2
          (List.length (Query.filter ~kinds:[ Recorder.Signal_change ] d));
        check_int "by range" 2
          (List.length (Query.filter ~from_cycle:2 ~to_cycle:3 d));
        check_int "conjunction" 1
          (List.length
             (Query.filter ~subject:"a" ~kinds:[ Recorder.Signal_change ] d));
        Alcotest.(check (list string)) "subjects" [ "a"; "b" ] (Query.subjects d);
        check_int "last trims from the front" 1
          (List.length (Query.last 1 d.Query.d_events)));
    t "latency rows pair begins with ends per track" (fun () ->
        let r = Recorder.create ~capacity:64 () in
        let p = Recorder.intern r "bus/plb" in
        let q = Recorder.intern r "bus/opb" in
        let txn track ~begin_at ~end_at =
          Recorder.set_now r begin_at;
          Recorder.txn_begin r ~subject:track ~words:1;
          Recorder.set_now r end_at;
          Recorder.txn_end r ~subject:track
        in
        txn p ~begin_at:0 ~end_at:2;
        txn p ~begin_at:10 ~end_at:14;
        txn p ~begin_at:20 ~end_at:28;
        txn q ~begin_at:0 ~end_at:100;
        (* a begin whose end fell outside the window must be dropped *)
        Recorder.set_now r 200;
        Recorder.txn_begin r ~subject:p ~words:1;
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        Alcotest.(check (list (pair string int)))
          "samples in window order"
          [ ("bus/plb", 2); ("bus/plb", 4); ("bus/plb", 8); ("bus/opb", 100) ]
          (Query.latency_samples d);
        match Query.latency_rows d with
        | [ opb; plb ] ->
            Alcotest.(check string) "sorted by track" "bus/opb" opb.Query.lr_track;
            check_int "opb count" 1 opb.Query.lr_count;
            check_int "opb p50 clamps to its max" 100 opb.Query.lr_p50;
            Alcotest.(check string) "plb second" "bus/plb" plb.Query.lr_track;
            check_int "plb count" 3 plb.Query.lr_count;
            check_int "plb p50 on a bucket edge" 4 plb.Query.lr_p50;
            check_int "plb p99 -> max sample's bucket" 8 plb.Query.lr_p99;
            check_int "plb max exact" 8 plb.Query.lr_max
        | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
    t "flamegraph collapses component evals into weighted stacks" (fun () ->
        let r = Recorder.create ~capacity:32 () in
        let a = Recorder.intern r "adapter/plb" in
        let b = Recorder.intern r "stub" in
        Recorder.comp_eval r ~subject:a;
        Recorder.comp_eval r ~subject:a;
        Recorder.comp_eval r ~subject:b;
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        Alcotest.(check string) "collapsed stacks"
          "kernel;adapter;plb 2\nkernel;stub 1\n" (Query.flamegraph d));
    t "dump openmetrics re-exposes the embedded snapshot" (fun () ->
        let obs = Obs.create () in
        let m = Obs.metrics obs in
        Metrics.add (Metrics.counter m "sim/cycles") 5;
        let r = Option.get (Obs.recorder obs) in
        let d =
          Result.get_ok (Query.of_string (Recorder.dump_string ~metrics:m r))
        in
        let txt = Query.openmetrics d in
        check_bool "counter exposed" true
          (Astring_contains.contains txt "splice_sim_cycles_total 5");
        check_bool "terminated" true
          (let n = String.length txt in
           n >= 6 && String.sub txt (n - 6) 6 = "# EOF\n"));
    t "a real host run records transactions, passes and signals" (fun () ->
        let spec = spec_of "void f(int*:4 xs);" in
        let obs = Obs.create () in
        let host =
          Host.create ~obs spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:2 (fun _ -> [ 0L ]))
        in
        let _ = Host.call host ~func:"f" ~args:[ ("xs", [ 1L; 2L; 3L; 4L ]) ] in
        let r = Option.get (Obs.recorder obs) in
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        let begins = Query.filter ~kinds:[ Recorder.Txn_begin ] d in
        check_bool "transactions recorded" true (begins <> []);
        Alcotest.(check (list string))
          "one track per transaction layer"
          [ "bus/plb"; "driver/f"; "sis/read"; "sis/write" ]
          (List.sort_uniq compare
             (List.map (fun e -> e.Query.ev_subject) begins));
        check_bool "latency rows reconstructed" true (Query.latency_rows d <> []);
        check_bool "scheduler passes recorded" true
          (Query.filter ~kinds:[ Recorder.Sched_pass ] d <> []);
        check_bool "signal transitions recorded" true
          (Query.filter ~kinds:[ Recorder.Signal_change ] d <> []);
        check_bool "summary renders the latency table" true
          (Astring_contains.contains (Query.summary d) "bus/plb"));
    t "latency rows on a dump with no transactions" (fun () ->
        let r = Recorder.create ~capacity:8 () in
        Recorder.comp_eval r ~subject:(Recorder.intern r "x");
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        Alcotest.(check (list (pair string int)))
          "no samples" [] (Query.latency_samples d);
        check_bool "no rows" true (Query.latency_rows d = []));
    t "unmatched begin yields an empty track, not a row" (fun () ->
        let r = Recorder.create ~capacity:8 () in
        Recorder.txn_begin r ~subject:(Recorder.intern r "bus/x") ~words:1;
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        check_bool "open transaction dropped" true (Query.latency_rows d = []));
    t "single-transaction track: every percentile is that sample" (fun () ->
        let r = Recorder.create ~capacity:8 () in
        let s = Recorder.intern r "bus/x" in
        Recorder.set_now r 3;
        Recorder.txn_begin r ~subject:s ~words:1;
        Recorder.set_now r 8;
        Recorder.txn_end r ~subject:s;
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        match Query.latency_rows d with
        | [ row ] ->
            check_int "count" 1 row.Query.lr_count;
            check_int "p50 = p99" row.Query.lr_p50 row.Query.lr_p99;
            check_int "max is the sample" 5 row.Query.lr_max
        | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
    t "filters that match nothing return empty, not an error" (fun () ->
        let r = Recorder.create ~capacity:8 () in
        Recorder.set_now r 2;
        Recorder.signal_change r ~subject:(Recorder.intern r "a") ~value:1;
        let d = Result.get_ok (Query.of_string (Recorder.dump_string r)) in
        check_int "unknown subject" 0
          (List.length (Query.filter ~subject:"nope" d));
        check_int "kind not recorded" 0
          (List.length (Query.filter ~kinds:[ Recorder.Txn_begin ] d));
        check_int "inverted cycle range" 0
          (List.length (Query.filter ~from_cycle:5 ~to_cycle:1 d));
        check_int "subject and disjoint kind conjunction" 0
          (List.length
             (Query.filter ~subject:"a" ~kinds:[ Recorder.Check_fail ] d));
        Alcotest.(check (list string))
          "subjects filtered by absent kind" []
          (Query.subjects ~kinds:[ Recorder.Txn_end ] d));
  ]

(* ------------------------------------------------------------------ *)
(* Obs.merge symmetry                                                  *)
(* ------------------------------------------------------------------ *)

let merge_tests =
  [
    t "merge is a no-op when either side is disabled" (fun () ->
        let live = Obs.create () in
        Metrics.incr (Metrics.counter (Obs.metrics live) "n");
        Obs.merge ~into:live Obs.none;
        check_int "disabled src contributes nothing" 1
          (Metrics.counter_value (Obs.metrics live) "n");
        Obs.merge ~into:Obs.none live;
        check_int "the shared [none] never accumulates" 0
          (Metrics.counter_value (Obs.metrics Obs.none) "n"));
    t "merging a context into itself is rejected" (fun () ->
        let o = Obs.create () in
        match Obs.merge ~into:o o with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    t "merge leaves flight recordings apart" (fun () ->
        let a = Obs.create () and b = Obs.create () in
        let rb = Option.get (Obs.recorder b) in
        Recorder.signal_change rb ~subject:(Recorder.intern rb "s") ~value:1;
        Obs.merge ~into:a b;
        check_int "into records nothing" 0
          (Recorder.total (Option.get (Obs.recorder a)));
        check_int "src keeps its event" 1 (Recorder.total rb));
    t "enabled contexts merge by summing" (fun () ->
        let a = Obs.create () and b = Obs.create () in
        Metrics.add (Metrics.counter (Obs.metrics a) "n") 2;
        Metrics.add (Metrics.counter (Obs.metrics b) "n") 3;
        Obs.merge ~into:a b;
        check_int "summed" 5 (Metrics.counter_value (Obs.metrics a) "n"));
  ]

let tests =
  [
    ("obs.metrics", metrics_tests);
    ("obs.json", json_tests);
    ("obs.kernel", kernel_tests);
    ("obs.views", views_tests);
    ("obs.sis", sis_tests);
    ("obs.breakdown", breakdown_tests);
    ("obs.vcd", vcd_tests);
    ("obs.recorder", recorder_tests);
    ("obs.percentile", percentile_tests);
    ("obs.openmetrics", openmetrics_tests);
    ("obs.query", query_tests);
    ("obs.merge", merge_tests);
  ]
