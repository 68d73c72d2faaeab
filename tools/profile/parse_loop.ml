(* An in-process front-end loop over the gen_projects corpus (Corpus):
   every spec read with Validate.of_string against the bus registry, as
   Project.from_source reads it (lex, parse, validate), [passes] times.
   Prints the time per spec, per spec byte, and the minor words allocated
   per spec. Profile this rather than gen_loop.exe to see the front end
   alone.

   parse_loop.exe [passes] [seed]   (defaults 2000 and 7919; run from the
   repository root, which holds examples/specs) *)

open Splice

let arg i default = if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default

let () =
  let passes = arg 1 2000 and srcs = Corpus.gen_sources (arg 2 7919) in
  let read src =
    match Validate.of_string ~lookup_bus:Registry.lookup_caps src with
    | Ok _ -> ()
    | Error _ -> failwith "parse_loop: a corpus spec does not validate"
  in
  List.iter read srcs;
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 srcs in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  for _ = 1 to passes do
    List.iter read srcs
  done;
  let dt = Unix.gettimeofday () -. t0 and words = Gc.minor_words () -. w0 in
  let n = float_of_int (passes * List.length srcs) in
  Printf.printf
    "%d specs (%d bytes) x %d passes: %.2f us/spec, %.1f ns/byte, %.0f minor words/spec\n"
    (List.length srcs) bytes passes (dt *. 1e6 /. n)
    (dt *. 1e9 /. float_of_int (bytes * passes))
    (words /. n)
