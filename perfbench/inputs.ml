(* Every input of every workload, generated from the workload seed. The
   program under test only ever sees these generated inputs. *)

module Rng = Splice.Specgen.Rng

(* Iterations per fuzz pass: a pass takes ~50 ms, so a 25 s run has about
   450 pass samples (22 beyond its p95), and each pass draws a fresh
   seed, so a run covers over two thousand random specs. *)
let fuzz_count = 5

(* A separate stream per workload, so adding draws to one never shifts
   another's inputs. *)
let stream seed salt = Rng.make (Splice.Diff.iteration_seed seed salt)

(* Seed of fuzz pass [k] (a non-negative int the CLI accepts). *)
let fuzz_seeds seed =
  let rng = stream seed 1 in
  fun () -> Rng.int rng 0x3FFF_FFFF

let fuzz_config s =
  { Splice.Diff.default_config with seed = s; count = fuzz_count }

(* The specification sources shipped with the repository. *)
let example_specs () =
  let dir = "examples/specs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".splice")
  |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

(* Seeded specs per bus for gen_projects: enough that the mix of spec
   sizes, and so projects/s, barely depends on the seed. *)
let gen_per_bus = 32

let generated_specs seed =
  let rng = stream seed 2 in
  List.concat_map
    (fun _ ->
      List.map
        (fun bus -> Splice.Specgen.render (Splice.Specgen.spec ~buses:[ bus ] rng))
        (Splice.Registry.names ()))
    (List.init gen_per_bus Fun.id)

let gen_sources seed = example_specs () @ generated_specs seed

(* The serve mix. *)
type request = Fuzz of { seed : int; bus : string } | Eval | Spec of string

(* Distinct fuzz seeds the mix cycles through; each is sent once per bus
   before it repeats, and each reply is checked against an in-process run. *)
let serve_fuzz_seeds = 128
let serve_fuzz_count = 2

let serve_fuzz_requests seed =
  let rng = stream seed 3 in
  let seeds = List.init serve_fuzz_seeds (fun _ -> Rng.int rng 0x3FFF_FFFF) in
  List.concat_map
    (fun s -> List.map (fun bus -> (s, bus)) (Splice.Registry.names ()))
    seeds
  |> Array.of_list

let serve_fuzz_config (s, bus) =
  {
    Splice.Diff.default_config with
    seed = s;
    count = serve_fuzz_count;
    buses = [ bus ];
  }

(* [next ()] draws the next request. The mix comes in blocks of ten, each
   a seeded shuffle of 7 fuzz (one bus each, cycling through all eight),
   2 eval and 1 spec, so every run has exactly the 70/20/10 proportions
   and its latency percentiles do not wander with the draw. *)
let serve_stream seed ~fuzz ~specs =
  let rng = stream seed 4 in
  let nf = ref 0 and ns = ref 0 and block = ref [] in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  fun () ->
    if !block = [] then block := shuffle [| `F; `F; `F; `F; `F; `F; `F; `E; `E; `S |];
    let k = List.hd !block in
    block := List.tl !block;
    match k with
    | `S ->
        let s = specs.(!ns mod Array.length specs) in
        incr ns;
        Spec s
    | `E -> Eval
    | `F ->
        let s, bus = fuzz.(!nf mod Array.length fuzz) in
        incr nf;
        Fuzz { seed = s; bus }

let kind_name = function Fuzz _ -> "fuzz" | Eval -> "eval" | Spec _ -> "spec"

let request_line id r =
  let fields =
    match r with
    | Fuzz { seed; bus } ->
        Splice.Json.
          [ ("seed", Int seed); ("count", Int serve_fuzz_count); ("bus", String bus) ]
    | Eval -> []
    | Spec src -> [ ("source", Splice.Json.String src) ]
  in
  Splice.Json.to_string
    (Obj ([ ("id", Splice.Json.Int id); ("kind", String (kind_name r)) ] @ fields))
