(* The gen_projects corpus of perfbench: the example specs, then 32
   seeded specs per bus, from the stream and in the draw order of
   perfbench's Inputs.generated_specs. Read from the repository root,
   which holds examples/specs. *)

open Splice

let gen_sources seed =
  let dir = "examples/specs" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".splice")
    |> List.sort compare
    |> List.map (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)
  in
  let rng = Specgen.Rng.make (Diff.iteration_seed seed 2) in
  examples
  @ List.concat_map
      (fun _ ->
        List.map
          (fun bus -> Specgen.render (Specgen.spec ~buses:[ bus ] rng))
          (Registry.names ()))
      (List.init 32 Fun.id)
