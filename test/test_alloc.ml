(* The zero-allocation invariant of the simulation cycle: once a design has
   gone quiet, a kernel cycle allocates nothing on any scheduler. Narrow
   signal values are immediates, deferred writes go to a reused array
   queue, and the settle/cycle loops run without per-cycle closures — this
   test keeps it that way on the Fig 9.2 hosts, with the default (enabled)
   observability context: metrics and flight recorder both on. *)

open Splice

let idle_cycles = 10_000

(* Cycles after the grid until one passes without a signal change: the
   last call's closing transfer may still be settling when the driver
   returns. *)
let quiesce k =
  let rec go n =
    if n = 0 then Alcotest.fail "design did not go idle after the grid";
    let before = Signal.change_count () in
    Kernel.cycle k;
    if Signal.change_count () <> before then go (n - 1)
  in
  go 64

let idle_words sched impl =
  let host = Interpolator.make_host ~sched impl in
  List.iter (fun sc -> ignore (Interpolator.run host sc)) Interp_scenarios.all;
  let k = Host.kernel host in
  quiesce k;
  let changes = Signal.change_count () in
  let w0 = Gc.minor_words () in
  Kernel.run k idle_cycles;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "the cycles were idle" changes (Signal.change_count ());
  words

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
        [ `Event; `Sweep; `Compiled ] );
  ]
