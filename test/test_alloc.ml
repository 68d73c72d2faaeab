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

let sched_name = function
  | `Event -> "event"
  | `Sweep -> "sweep"
  | `Compiled -> "compiled"

let tests =
  [
    ( "sim.alloc",
      List.map
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
