open Splice_devices
open Splice_resources

let fig_9_1 () = Interp_scenarios.fig_9_1_table ()

let fig_9_3 () =
  let rows =
    List.map
      (fun i -> (Interpolator.impl_name i, Interpolator.resource_usage i))
      Interpolator.all_impls
  in
  Report.table
    ~header:[ "Figure 9.3: FPGA Resources Consumed By Each Implementation" ]
    ~rows

let cross_bus () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Cross-bus portability: int f(int n, int*:n xs) with 8 elements
";
  Buffer.add_string buf
    (Printf.sprintf "%-10s %8s %14s %12s
" "bus" "cycles" "adapter slices"
       "wait mode");
  List.iter
    (fun bus ->
      let burst =
        match Splice_buses.Registry.lookup_caps bus with
        | Some caps -> caps.Splice_syntax.Bus_caps.supports_burst
        | None -> false
      in
      let spec =
        Splice_syntax.Validate.of_string_exn
          ~lookup_bus:Splice_buses.Registry.lookup_caps
          (Printf.sprintf
             "%%device_name xbus
%%bus_type %s
%%bus_width 32
%%base_address               0x80000000
%%burst_support %b
int f(int n, int*:n xs);"
             bus burst)
      in
      let host =
        Splice_driver.Host.create spec ~behaviors:(fun _ ->
            Splice_sis.Stub_model.behavior ~cycles:4 (fun inputs ->
                [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
      in
      let _, cycles =
        Splice_driver.Host.call host ~func:"f"
          ~args:[ ("n", [ 8L ]); ("xs", List.init 8 Int64.of_int) ]
      in
      let adapter =
        (Splice_resources.Model.adapter spec ~bus ~dma:false)
          .Splice_resources.Model.slices
      in
      let wait =
        match Splice_buses.Registry.find bus with
        | Some (module B : Splice_buses.Bus.S) -> (
            match B.wait_mode with `Null -> "stall" | `Poll -> "poll")
        | None -> "?"
      in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %8d %14d %12s
" bus cycles adapter wait))
    (Splice_buses.Registry.names ());
  Buffer.contents buf

let ascii_bars ~title rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  let max_v = List.fold_left (fun m (_, v) -> max m v) 1 rows in
  let name_w = List.fold_left (fun m (n, _) -> max m (String.length n)) 8 rows in
  List.iter
    (fun (name, v) ->
      let len = v * 50 / max_v in
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s %d\n" name_w name (String.make len '#') v))
    rows;
  Buffer.contents buf

let everything ?pool () =
  let buf = Buffer.create 4096 in
  let section s = Buffer.add_string buf ("\n== " ^ s ^ " ==\n\n") in
  section "Figure 9.1";
  Buffer.add_string buf (fig_9_1 ());
  section "Figure 9.2";
  let rows = Cycles.measure ?pool () in
  Buffer.add_string buf (Cycles.fig_9_2_table rows);
  Buffer.add_string buf
    (Format.asprintf "\n%a\n" Cycles.pp_summary (Cycles.summarize rows));
  Buffer.add_string buf
    (ascii_bars ~title:"\nTotal cycles across scenarios (Fig 9.2 bar chart):"
       (List.map
          (fun (r : Cycles.row) -> (Interpolator.impl_name r.impl, r.total))
          rows));
  section "Figure 9.3";
  Buffer.add_string buf (fig_9_3 ());
  Buffer.add_string buf
    (ascii_bars ~title:"\nSlices per implementation (Fig 9.3 bar chart):"
       (List.map
          (fun i ->
            ( Interpolator.impl_name i,
              (Interpolator.resource_usage i).Model.slices ))
          Interpolator.all_impls));
  section "Packing ablation (E4)";
  Buffer.add_string buf (Experiment.Packing.table (Experiment.Packing.run ()));
  section "DMA crossover (E5)";
  Buffer.add_string buf
    (Experiment.Dma_crossover.table (Experiment.Dma_crossover.run ()));
  section "Arbitration ablation (E8)";
  Buffer.add_string buf
    (Experiment.Arbitration.table (Experiment.Arbitration.run ?pool ()));
  section "Scheduler ablation (E14)";
  Buffer.add_string buf
    (Experiment.Scheduler.table (Experiment.Scheduler.run ?pool ()));
  section "Coverage-guided fuzzing (E17)";
  Buffer.add_string buf (Experiment.Coverage.table (Experiment.Coverage.run ()));
  section "CDC ratio sweep (E18)";
  Buffer.add_string buf
    (Experiment.Cdc_sweep.table (Experiment.Cdc_sweep.run ?pool ()));
  section "Burst ablation (E9)";
  Buffer.add_string buf (Experiment.Burst.table (Experiment.Burst.run ()));
  section "Interrupt ablation (E11)";
  Buffer.add_string buf (Experiment.Interrupts.table (Experiment.Interrupts.run ()));
  section "Consolidation ablation (E12)";
  Buffer.add_string buf
    (Experiment.Consolidation.table (Experiment.Consolidation.run ()));
  section "Cross-bus portability";
  Buffer.add_string buf (cross_bus ());
  section "Supplementary: the interpolator on every bus";
  Buffer.add_string buf
    "(beyond the paper's five implementations: the same Splice spec\n\
     retargeted by changing %bus_type alone, bursts on where available and\n\
     default CPU overheads — not directly comparable to the calibrated\n\
     Fig 9.2 rows; total cycles over the four Fig 9.1 scenarios)\n";
  List.iter
    (fun bus ->
      let host = Interpolator.make_host_on_bus bus in
      let total =
        List.fold_left
          (fun acc s -> acc + snd (Interpolator.run host s))
          0 Interp_scenarios.all
      in
      Buffer.add_string buf (Printf.sprintf "%-10s %8d\n" bus total))
    (Splice_buses.Registry.names ());
  Buffer.contents buf
