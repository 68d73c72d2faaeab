(* The zero-allocation invariant of the simulation cycle: once a design has
   gone quiet, a kernel cycle allocates nothing on any scheduler. Narrow
   signal values are immediates, deferred writes go to a reused array
   queue, and the settle/cycle loops run without per-cycle closures — this
   test keeps it that way on the Fig 9.2 hosts and on a monitored two-clock
   AXI host, with the default (enabled) observability context: metrics and
   flight recorder both on. *)

open Splice

let idle_cycles = 10_000

(* Cycles after the last call until [window] consecutive cycles pass
   without a signal change: the call's closing transfer may still be
   settling when the driver returns. A two-clock host needs a window that
   spans both clocks' edges, since a tick without an edge is trivially
   quiet. *)
let quiesce ?(window = 1) k =
  let rec go n quiet =
    if quiet = window then ()
    else if n = 0 then Alcotest.fail "design did not go idle after the last call"
    else begin
      let before = Signal.change_count () in
      Kernel.cycle k;
      go (n - 1) (if Signal.change_count () = before then quiet + 1 else 0)
    end
  in
  go (64 * window) 0

let idle_run ?window k =
  quiesce ?window k;
  let changes = Signal.change_count () in
  let w0 = Gc.minor_words () in
  Kernel.run k idle_cycles;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "the cycles were idle" changes (Signal.change_count ());
  words

let idle_words sched impl =
  let host = Interpolator.make_host ~sched impl in
  List.iter (fun sc -> ignore (Interpolator.run host sc)) Interp_scenarios.all;
  idle_run (Host.kernel host)

let axi_spec =
  "%device_name idle\n%bus_type axi\n%bus_width 32\n%base_address 0x80000000\n\
   int add2(int x, int y);"

(* the ACLK:PCLK ratios: at 3:2 and 5:2 the domains have periods 2:3 and
   2:5, so some ticks carry neither edge and the gating skips every seq *)
let axi_ratios = [ (1, 1); (3, 2); (5, 2) ]

(* an AXI host with the protocol monitors attached, idle after one call *)
let axi_idle_words sched ratio =
  let spec = Validate.of_string_exn ~lookup_bus:Registry.lookup_caps axi_spec in
  let host =
    Host.create ~sched ~cdc:{ Bus.ratio; depth = 2 } spec ~behaviors:(fun _ ->
        Stub_model.behavior ~cycles:3 (fun inputs ->
            [ Int64.add (List.hd (List.assoc "x" inputs)) (List.hd (List.assoc "y" inputs)) ]))
  in
  let k = Host.kernel host in
  Bus_monitor.attach k ~bus:"axi" (Host.sis host);
  let r, _ = Host.call host ~func:"add2" ~args:[ ("x", [ 20L ]); ("y", [ 22L ]) ] in
  Alcotest.(check (list int64)) "add2 result" [ 42L ] r;
  let aclk = Option.get (Kernel.find_domain k "axi.aclk")
  and pclk = Option.get (Kernel.find_domain k "axi.pclk") in
  let edge d n = n mod Kernel.domain_period d = Kernel.domain_phase d in
  Alcotest.(check bool)
    "some ticks carry neither edge" (ratio <> (1, 1))
    (List.exists
       (fun n -> (not (edge aclk n)) && not (edge pclk n))
       (List.init (Kernel.domain_period aclk * Kernel.domain_period pclk) Fun.id));
  idle_run ~window:32 k

(* A narrow signal keeps its value as an int and a signal queues into the
   store it was created with, so a deferred int write, its commit and the
   change it makes store fields and allocate nothing: the listeners of
   the host's event kernel and its flight recorder are live throughout *)
let writes = 1_000

let narrow_write_words () =
  let host = Interpolator.make_host (List.hd Interpolator.all_impls) in
  ignore (Interpolator.run host (List.hd Interp_scenarios.all));
  let sis = Host.sis host in
  let strobe = sis.Sis_if.io_enable and data = sis.Sis_if.data_in in
  Alcotest.(check bool) "narrow data" true (Signal.narrow data);
  let changes = Signal.change_count () in
  let w0 = Gc.minor_words () in
  for i = 1 to writes do
    Signal.set_next_bool strobe (i land 1 = 1);
    Signal.set_next_int data i;
    Signal.commit_pending ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every write changed its signal" (2 * writes)
    (Signal.change_count () - changes);
  words

(* The minor words of one busy Fig 9.2 grid (Cycles.measure, replayed from
   this domain's design cache after a warm-up grid). The bound is the
   measured 59,326 plus 25%. *)
let grid_words_bound = 74_158.

let grid_words () =
  ignore (Cycles.measure ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Cycles.measure ()));
  Gc.minor_words () -. w0

let sched_name = function
  | `Event -> "event"
  | `Sweep -> "sweep"
  | `Compiled -> "compiled"

(* Project generation writes each generated file straight into a
   render buffer lent from file to file, so the minor words it allocates
   stay a small multiple of the bytes it outputs, and what it allocates
   directly in the major heap is little more than the files themselves
   (a file's string of over 256 words goes there). Measured over the
   golden corpus after one warm-up pass; each bound is the measured value
   plus 25%. *)
let words_per_byte_bound = 0.49
let major_words_per_byte_bound = 0.128

(* words allocated straight into the major heap, not promoted to it; the
   slice first brings the domain's major-heap counters up to date *)
let direct_major_words () =
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* minor and direct major words per output byte *)
let codegen_words_per_byte () =
  let srcs = List.map snd (Test_codegen.golden_corpus ()) in
  let generate () = List.map (Project.from_source ~gen_date:"pinned") srcs in
  ignore (generate ());
  let w0 = Gc.minor_words () and m0 = direct_major_words () in
  let projects = generate () in
  let words = Gc.minor_words () -. w0 and major = direct_major_words () -. m0 in
  let bytes =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (f : Project.file) -> acc + String.length f.contents)
          acc (Project.files p))
      0 projects
  in
  (words /. float_of_int bytes, major /. float_of_int bytes)

let tests =
  [
    ( "codegen.alloc",
      [
        Alcotest.test_case "project generation allocates few minor words per output byte"
          `Quick (fun () ->
            let wpb, _ = codegen_words_per_byte () in
            if wpb > words_per_byte_bound then
              Alcotest.failf "%.3f minor words per output byte (bound %.2f)" wpb
                words_per_byte_bound);
        Alcotest.test_case
          "project generation allocates few words directly in the major heap per output byte"
          `Quick (fun () ->
            let _, major = codegen_words_per_byte () in
            if major > major_words_per_byte_bound then
              Alcotest.failf "%.3f direct major words per output byte (bound %.3f)" major
                major_words_per_byte_bound);
      ] );
    ( "sim.alloc",
      [
        Alcotest.test_case "narrow deferred writes, their commits and changes allocate nothing"
          `Quick (fun () ->
            Alcotest.(check (float 0.))
              (Printf.sprintf "minor words over %d narrow writes" writes)
              0. (narrow_write_words ()));
        Alcotest.test_case "a busy Fig 9.2 grid allocates few minor words" `Quick (fun () ->
            let words = grid_words () in
            if words > grid_words_bound then
              Alcotest.failf "%.0f minor words per grid (bound %.0f)" words grid_words_bound);
      ]
      @ List.map
        (fun sched ->
          Alcotest.test_case
            (Printf.sprintf "idle Fig 9.2 cycles allocate nothing (%s)"
               (sched_name sched))
            `Quick
            (fun () ->
              List.iter
                (fun impl ->
                  Alcotest.(check (float 0.))
                    (Printf.sprintf "%s: minor words over %d idle cycles"
                       (Interpolator.impl_name impl) idle_cycles)
                    0. (idle_words sched impl))
                Interpolator.all_impls))
        [ `Event; `Sweep; `Compiled ]
      @ List.map
          (fun sched ->
            Alcotest.test_case
              (Printf.sprintf "idle monitored AXI cycles allocate nothing (%s)"
                 (sched_name sched))
              `Quick
              (fun () ->
                List.iter
                  (fun ((a, p) as ratio) ->
                    Alcotest.(check (float 0.))
                      (Printf.sprintf "axi %d:%d: minor words over %d idle cycles" a p
                         idle_cycles)
                      0. (axi_idle_words sched ratio))
                  axi_ratios))
          [ `Event; `Sweep; `Compiled ] );
  ]
