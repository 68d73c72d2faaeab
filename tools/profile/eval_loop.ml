(* An in-process loop of the Fig 9.2 grid: Cycles.measure, the pass of
   perfbench's eval_grid workload, on one domain with the design cache
   on. Prints the time per grid, the ticks simulated per grid, the
   ticks the kernels stepped per grid (Kernel.stats [stepped]; the others
   were jumped over, see Kernel.run), the minor words allocated per grid
   and the process's peak resident set (VmHWM, the figure perfbench
   reports as peak_rss_mb). Profile this rather than
   perfbench/main.exe, and run two builds' copies in turn for an
   in-process A/B.

   eval_loop.exe [grids]   (default 2000) *)

open Splice

let grids = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2000

(* one grid's kernel counters: the calls Cycles.measure makes, on the
   hosts it replays from this domain's design cache *)
let grid_stats () =
  List.map
    (fun impl ->
      let host, _hit =
        Design_cache.with_cache ~key:(Cycles.interp_key impl) ~sched:`Event
          ~build:(fun () -> Interpolator.make_host ~obs:Obs.none impl)
      in
      List.iter (fun s -> ignore (Interpolator.run host s)) Interp_scenarios.all;
      Kernel.stats (Host.kernel host))
    Interpolator.all_impls

let () =
  let stats = grid_stats () in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let ticks = sum (fun s -> s.Kernel.cycles) and stepped = sum (fun s -> s.Kernel.stepped) in
  ignore (Cycles.measure ());
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  for _ = 1 to grids do
    ignore (Sys.opaque_identity (Cycles.measure ()))
  done;
  let dt = Unix.gettimeofday () -. t0 and words = Gc.minor_words () -. w0 in
  let per_grid x = x /. float_of_int grids in
  Printf.printf
    "%d grids: %.1f us/grid, %d ticks/grid, %d stepped/grid (%.1f%%), %.0f minor \
     words/grid, peak RSS %.1f MB\n"
    grids
    (per_grid (dt *. 1e6))
    ticks stepped
    (100. *. float_of_int stepped /. float_of_int ticks)
    (per_grid words) (Rss.peak_mb ())
