(* An in-process loop of the differential fuzz sweep: Diff.run passes
   shaped like perfbench's fuzz_sweep workload (count 5, every bus, the
   default schedulers, one domain), each at a fresh seed drawn from one
   stream, as perfbench draws them. Prints the time per checked call, the
   calls per pass, how the passes' time splits between acquiring hosts
   (r_build_ns), executing calls (r_sim_ns) and the rest (spec
   generation, digests, the sweep's own bookkeeping), the minor words
   allocated per call and the process's peak resident set (VmHWM, the
   figure perfbench reports as peak_rss_mb). Profile this rather than
   perfbench/main.exe, whose timed phase also runs the reference kernel
   and whose gate runs CLI processes.

   fuzz_loop.exe [passes] [seed]   (defaults 200 and 7919) *)

open Splice

let arg i default = if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default

let () =
  let passes = arg 1 200 in
  (* the stream and draw order of perfbench's Inputs.fuzz_seeds *)
  let rng = Specgen.Rng.make (Diff.iteration_seed (arg 2 7919) 1) in
  let config () =
    { Diff.default_config with seed = Specgen.Rng.int rng 0x3FFF_FFFF; count = 5 }
  in
  let calls = ref 0 and build = ref 0 and sim = ref 0 in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  for _ = 1 to passes do
    let r = Diff.run (config ()) in
    if r.Diff.r_failure <> None then failwith "fuzz_loop: a sweep pass failed";
    calls := !calls + r.Diff.r_calls;
    build := !build + r.Diff.r_build_ns;
    sim := !sim + r.Diff.r_sim_ns
  done;
  let dt = Unix.gettimeofday () -. t0 and words = Gc.minor_words () -. w0 in
  let total_ns = dt *. 1e9 and n = float_of_int !calls in
  let pct ns = 100. *. float_of_int ns /. total_ns in
  Printf.printf
    "%d passes: %.2f us/call, %.1f calls/pass, build %.1f%% / sim %.1f%% / other \
     %.1f%%, %.0f minor words/call, peak RSS %.1f MB\n"
    passes (total_ns /. 1e3 /. n)
    (n /. float_of_int passes)
    (pct !build) (pct !sim)
    (100. -. pct !build -. pct !sim)
    (words /. n) (Rss.peak_mb ())
