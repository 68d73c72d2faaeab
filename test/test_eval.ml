(* Evaluation tests: the whole [splice eval] output pinned, the Fig 9.2 /
   9.3 shape claims of §9.3 (as ratio bands, not absolute cycle counts) and
   the ablation experiments E4/E5/E8/E9. *)

open Splice

let t name f = Alcotest.test_case name `Slow f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let in_band name lo hi v =
  check_bool (Printf.sprintf "%s: %.3f in [%.2f, %.2f]" name v lo hi) true
    (v >= lo && v <= hi)

(* measuring all implementations is the expensive part: do it once *)
let rows = lazy (Cycles.measure ())

let fig_9_2_tests =
  [
    t "every implementation computes correct results (checked in measure)"
      (fun () -> check_int "5 rows" 5 (List.length (Lazy.force rows)));
    t "ordering: optimized FCB < splice FCB < splice PLB < naive PLB" (fun () ->
        let c impl = Cycles.cycles_of (Lazy.force rows) impl in
        check_bool "opt < splice fcb" true
          (c Interpolator.Optimized_fcb_handcoded < c Interpolator.Splice_fcb);
        check_bool "splice fcb < splice plb" true
          (c Interpolator.Splice_fcb < c Interpolator.Splice_plb_simple);
        check_bool "splice plb < naive" true
          (c Interpolator.Splice_plb_simple < c Interpolator.Simple_plb_handcoded));
    t "cycles grow with scenario size within each implementation" (fun () ->
        List.iter
          (fun (r : Cycles.row) ->
            let cs = List.map snd r.Cycles.per_scenario in
            let rec mono = function
              | a :: b :: rest -> a < b && mono (b :: rest)
              | _ -> true
            in
            check_bool (Interpolator.impl_name r.Cycles.impl) true (mono cs))
          (Lazy.force rows));
    t "§9.3.1: Splice PLB ~25% faster than naive PLB" (fun () ->
        in_band "ratio" 0.68 0.82
          (Cycles.summarize (Lazy.force rows)).Cycles.splice_plb_vs_naive);
    t "§9.3.1: Splice FCB ~43% faster than naive PLB" (fun () ->
        in_band "ratio" 0.50 0.65
          (Cycles.summarize (Lazy.force rows)).Cycles.splice_fcb_vs_naive);
    t "§9.3.1: Splice FCB ~13% slower than optimized FCB" (fun () ->
        in_band "ratio" 1.05 1.22
          (Cycles.summarize (Lazy.force rows)).Cycles.splice_fcb_vs_optimized);
    t "§9.3.1: DMA gives only a 1-4% overall improvement" (fun () ->
        in_band "ratio" 0.94 1.00
          (Cycles.summarize (Lazy.force rows)).Cycles.dma_vs_simple);
    t "DMA loses on the smallest scenario, wins on the largest" (fun () ->
        let per impl =
          (List.find (fun (r : Cycles.row) -> r.Cycles.impl = impl) (Lazy.force rows))
            .Cycles.per_scenario
        in
        let dma = per Interpolator.Splice_plb_dma
        and pio = per Interpolator.Splice_plb_simple in
        check_bool "scenario 1: PIO wins" true (List.assoc 1 dma > List.assoc 1 pio);
        check_bool "scenario 4: DMA wins" true (List.assoc 4 dma < List.assoc 4 pio));
  ]

let fig_9_3_tests =
  [
    t "§9.3.2: Splice PLB ~23% below naive PLB" (fun () ->
        let r =
          Resource_report.ratio
            (Interpolator.resource_usage Interpolator.Splice_plb_simple)
            (Interpolator.resource_usage Interpolator.Simple_plb_handcoded)
        in
        in_band "ratio" 0.70 0.84 r);
    t "§9.3.2: Splice FCB ~28% below naive PLB" (fun () ->
        let r =
          Resource_report.ratio
            (Interpolator.resource_usage Interpolator.Splice_fcb)
            (Interpolator.resource_usage Interpolator.Simple_plb_handcoded)
        in
        in_band "ratio" 0.64 0.78 r);
    t "§9.3.2: Splice FCB ~2% above optimized FCB" (fun () ->
        let r =
          Resource_report.ratio
            (Interpolator.resource_usage Interpolator.Splice_fcb)
            (Interpolator.resource_usage Interpolator.Optimized_fcb_handcoded)
        in
        in_band "ratio" 1.00 1.10 r);
    t "§9.3.2: DMA costs 57-69% extra resources" (fun () ->
        let r =
          Resource_report.ratio
            (Interpolator.resource_usage Interpolator.Splice_plb_dma)
            (Interpolator.resource_usage Interpolator.Splice_plb_simple)
        in
        in_band "ratio" 1.50 1.72 r);
    t "resource model monotone in function count" (fun () ->
        let spec_n n =
          let decls =
            String.concat "\n"
              (List.init n (fun i -> Printf.sprintf "int f%d(int x);" i))
          in
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            ("%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n"
            ^ decls)
        in
        let slices n = (Resources.estimate (spec_n n)).Resources.slices in
        check_bool "2 > 1" true (slices 2 > slices 1);
        check_bool "4 > 2" true (slices 4 > slices 2));
    t "report table renders every row" (fun () ->
        let table = Tables.fig_9_3 () in
        List.iter
          (fun impl ->
            check_bool (Interpolator.impl_name impl) true
              (Astring_contains.contains table (Interpolator.impl_name impl)))
          Interpolator.all_impls);
  ]

let ablation_tests =
  [
    t "E4: packing approaches the 75% word reduction (§3.1.3)" (fun () ->
        let points = Experiment.Packing.run ~sizes:[ 4; 64 ] () in
        let p4 = List.hd points in
        check_int "4 chars unpacked" 5 p4.Experiment.Packing.words_unpacked;
        check_int "4 chars packed" 2 p4.Experiment.Packing.words_packed;
        let p64 = List.nth points 1 in
        (* asymptotically 4 chars/word: 65 words -> 17 *)
        check_int "64 chars packed" 17 p64.Experiment.Packing.words_packed;
        check_bool "cycles improve" true
          (p64.Experiment.Packing.cycles_packed * 3
          < p64.Experiment.Packing.cycles_unpacked));
    t "E5: DMA crossover beyond 4 words (§9.2.1)" (fun () ->
        let points = Experiment.Dma_crossover.run ~sizes:[ 1; 2; 3; 4; 5; 6; 8 ] () in
        (match Experiment.Dma_crossover.crossover points with
        | Some w -> check_bool "crossover past 4" true (w >= 5)
        | None -> Alcotest.fail "DMA never won");
        List.iter
          (fun p ->
            if p.Experiment.Dma_crossover.words <= 4 then
              check_bool "<=4: PIO wins" true
                (p.Experiment.Dma_crossover.pio_cycles
                < p.Experiment.Dma_crossover.dma_cycles))
          points);
    t "E8: arbitration cost flat in function count (§5.2)" (fun () ->
        let points = Experiment.Arbitration.run ~max_functions:6 () in
        let first = (List.hd points).Experiment.Arbitration.cycles in
        List.iter
          (fun p -> check_int "flat" first p.Experiment.Arbitration.cycles)
          points);
    t "E14: event and compiled cycle identically with fewer comb evals"
      (fun () ->
        (* fast subset of the full bench table: one Fig 9.2 implementation
           plus one arbitration width; [agree] spans all three schedulers *)
        List.iter
          (fun (p : Experiment.Scheduler.point) ->
            check_bool (p.Experiment.Scheduler.label ^ ": cycles agree") true
              (Experiment.Scheduler.agree p);
            check_bool (p.Experiment.Scheduler.label ^ ": fewer evals") true
              (p.Experiment.Scheduler.evals_event
              < p.Experiment.Scheduler.evals_sweep);
            check_bool
              (p.Experiment.Scheduler.label ^ ": tape no worse than sweep")
              true
              (p.Experiment.Scheduler.evals_compiled
              < p.Experiment.Scheduler.evals_sweep))
          [
            Experiment.Scheduler.interp_point Interpolator.Splice_plb_simple;
            Experiment.Scheduler.arbitration_point 4;
          ]);
    t "E9: bursts always help and help more for longer arrays (§3.2.2)"
      (fun () ->
        let points = Experiment.Burst.run ~sizes:[ 2; 8; 32 ] () in
        List.iter
          (fun p ->
            check_bool "burst <= singles" true
              (p.Experiment.Burst.burst_cycles <= p.Experiment.Burst.single_cycles))
          points;
        let saving p =
          1.0
          -. float_of_int p.Experiment.Burst.burst_cycles
             /. float_of_int p.Experiment.Burst.single_cycles
        in
        check_bool "monotone saving" true
          (saving (List.nth points 2) > saving (List.hd points)));
  ]

let interrupt_ablation_tests =
  [
    t "E11: interrupts cut status reads to one, latency within a few cycles"
      (fun () ->
        let points = Experiment.Interrupts.run ~calcs:[ 16; 128 ] () in
        List.iter
          (fun p ->
            check_int "one ack" 1 p.Experiment.Interrupts.irq_reads;
            check_bool "latency comparable" true
              (p.Experiment.Interrupts.irq_cycles
              <= p.Experiment.Interrupts.poll_cycles + 10))
          points;
        let long = List.nth points 1 in
        check_bool "polling reads grow" true
          (long.Experiment.Interrupts.poll_reads > 10));
  ]

let consolidation_tests =
  [
    t "E12: consolidation never loses and saves more with more functions"
      (fun () ->
        let points = Experiment.Consolidation.run ~max_functions:6 () in
        List.iter
          (fun p ->
            check_bool "consolidated <= separate" true
              (p.Experiment.Consolidation.consolidated_slices
              <= p.Experiment.Consolidation.separate_slices))
          points;
        let saving p =
          1.0
          -. float_of_int p.Experiment.Consolidation.consolidated_slices
             /. float_of_int p.Experiment.Consolidation.separate_slices
        in
        check_bool "monotone" true
          (saving (List.nth points 5) > saving (List.nth points 1)));
  ]

let cdc_sweep_tests =
  [
    t "E18: every (ratio, depth) cell of the CDC sweep, pinned" (fun () ->
        (* the ratio and depth reach the bridge as Host.create's ~cdc: a
           cell that stopped receiving them would elaborate at the
           default 3:1 and change its cycle and edge counts *)
        let row ratio (cycles, aclk, pclk) =
          List.map (fun depth -> (ratio, depth, cycles, aclk, pclk)) [ 2; 4; 8 ]
        in
        let expected =
          row (1, 1) (212, 212, 212)
          @ row (2, 1) (309, 309, 155)
          @ row (3, 1) (398, 398, 133)
          @ row (3, 2) (467, 234, 156)
          @ row (5, 2) (663, 332, 133)
        in
        let points = Experiment.Cdc_sweep.run () in
        check_bool "every scheduler agrees" true
          (Experiment.Cdc_sweep.all_agree points);
        let show (ra, rb) d c a p =
          Printf.sprintf "%d:%d/%d -> %d/%d/%d" ra rb d c a p
        in
        Alcotest.(check (list string))
          "ratio/depth -> cycles/aclk/pclk"
          (List.map (fun (r, d, c, a, p) -> show r d c a p) expected)
          (List.map
             (fun (p : Experiment.Cdc_sweep.point) ->
               show p.ratio p.depth p.cycles p.aclk_edges p.pclk_edges)
             points));
  ]

let pinned_tests =
  [
    t "splice eval output: identical under a pool, digest pinned" (fun () ->
        (* every section is a function of the model, not of the machine,
           so the whole evaluation is one value: equal at any pool size
           and pinned whole (CI pins the sha256 of the same text) *)
        let seq = Tables.everything () in
        let par =
          Pool.with_pool ~domains:2 (fun pool -> Tables.everything ~pool ())
        in
        Alcotest.(check string) "2-domain pool" seq par;
        Alcotest.(check string)
          "md5" "ddbb01eb1ecd348d2c241bad66abd3f2"
          (Digest.to_hex (Digest.string seq)));
  ]

let tests =
  [
    ("eval.pinned", pinned_tests);
    ("eval.fig-9-2", fig_9_2_tests);
    ("eval.fig-9-3", fig_9_3_tests);
    ("eval.ablations", ablation_tests @ interrupt_ablation_tests @ consolidation_tests);
    ("eval.cdc", cdc_sweep_tests);
  ]
