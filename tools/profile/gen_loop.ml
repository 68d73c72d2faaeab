(* An in-process project-generation loop over the gen_projects corpus of
   perfbench: the example specs plus 32 seeded specs per bus, generated
   [passes] times with Project.from_source. Prints the time per project,
   the minor words and the words allocated directly in the major heap per
   output byte, and the process's peak resident set (VmHWM, the figure
   perfbench reports as peak_rss_mb). Profile this rather than
   perfbench/main.exe, whose set-up child processes and per-pass digest
   are not project generation.

   gen_loop.exe [passes] [seed]   (defaults 200 and 7919; run from the
   repository root, which holds examples/specs) *)

open Splice

let arg i default = if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default

(* words allocated straight into the major heap: major words less the
   ones promoted from the minor heap (the slice first brings the
   counters up to date) *)
let direct_major_words () =
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let () =
  let passes = arg 1 200 and srcs = Corpus.gen_sources (arg 2 7919) in
  let generate () = List.map (Project.from_source ~gen_date:"perfbench") srcs in
  let bytes =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (f : Project.file) -> acc + String.length f.contents)
          acc (Project.files p))
      0 (generate ())
  in
  let w0 = Gc.minor_words () and m0 = direct_major_words () and t0 = Unix.gettimeofday () in
  for _ = 1 to passes do
    ignore (generate ())
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 and major = direct_major_words () -. m0 in
  let n = float_of_int (passes * List.length srcs) and out = float_of_int (bytes * passes) in
  Printf.printf
    "%d projects (%d bytes) x %d passes: %.1f us/project, %.3f minor words/byte, \
     %.3f major words/byte, peak RSS %.1f MB\n"
    (List.length srcs) bytes passes (dt *. 1e6 /. n) (words /. out) (major /. out)
    (Rss.peak_mb ())
