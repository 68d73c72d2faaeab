(* The workloads. [prepare] does everything before the timed phase —
   input generation and a first pass — and returns a session whose [timed]
   runs passes for a given number of seconds. Outputs are checked into
   [ctx.tally] as they come. *)

open Ctx

type timed = {
  lat : float array;  (** ns per op, in order *)
  lat_ref : float array;
      (** the same latencies in references: each op over the mean of the
          reference runs just before and just after its pass *)
  work : float;
  secs : float;  (** the time the work took *)
  ref_ns : float;  (** summed times of the reference runs among the ops *)
  ref_n : int;  (** and their number *)
}

let rate t = t.work /. t.secs

(* Work per reference: the work done in the time one run of [reference]
   took during the same timed phase. *)
let per_ref t = rate t *. (t.ref_ns /. float_of_int t.ref_n /. 1e9)

(* Mean time of one reference run, ns. *)
let ref_mean t = t.ref_ns /. float_of_int t.ref_n

let join a b =
  {
    lat = Array.append a.lat b.lat;
    lat_ref = Array.append a.lat_ref b.lat_ref;
    work = a.work +. b.work;
    secs = a.secs +. b.secs;
    ref_ns = a.ref_ns +. b.ref_ns;
    ref_n = a.ref_n + b.ref_n;
  }

type session = {
  timed : float -> timed;
  finish : unit -> unit;  (** checks that run after the timed phase *)
}

(* The machine's speed, measured among the ops. The 2-vCPU host this was
   tuned on switches between a fast and a slow speed for seconds to
   minutes at a time (a fixed loop takes 2.5 or 4.0 ms, in CPU time as in
   wall time), so ten runs of the same code spread 0.14 to 0.32 in
   throughput (interquartile range over median). A fixed kernel of this
   file's own code, timed every 50 ms of the run, slows down with the
   ops; in throughput per reference ten runs spread 0.02 to 0.07. It
   allocates like the program (a hash table and a map), 147k words, but
   fits in the 256k-word minor heap emptied just before it. So a garbage
   collection, whose cost would depend on the program's heap, runs inside
   it only rarely (once in 198 reference runs over one run of each
   workload). *)
module Int_map = Map.Make (Int)

let reference () =
  let h = Hashtbl.create 256 in
  let acc = ref 0 in
  for i = 0 to 1999 do
    let k = i * 7919 land 255 in
    Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k));
    acc := !acc + List.length (Hashtbl.find h k)
  done;
  let m =
    List.fold_left
      (fun m i -> Int_map.add (i * 31 land 4095) i m)
      Int_map.empty (List.init 2000 Fun.id)
  in
  ignore (Sys.opaque_identity (!acc + Int_map.cardinal m))

let ref_every_ns = 5e7

(* Run [pass] (which returns its ops as (work, ns)) until [seconds] have
   passed, timing [reference] every [ref_every_ns] between passes.
   Latencies are kept in a flat float array, not a list of boxed pairs: a
   gen_projects run has ~90,000 ops, and their storage must not show in
   the run's peak RSS, which would then grow with the program's speed. *)
let loop_for seconds pass =
  let t0 = Stat.now_ns () in
  (* (reference ns, index of the first op after it), newest first *)
  let refs = ref [] and last_ref = ref 0L in
  let lat = ref (Array.make 4096 0.) and n = ref 0 and work = ref 0. in
  let add (w, ns) =
    if !n = Array.length !lat then begin
      let a = Array.make (2 * !n) 0. in
      Array.blit !lat 0 a 0 !n;
      lat := a
    end;
    !lat.(!n) <- ns;
    incr n;
    work := !work +. w
  in
  while Stat.ns_since t0 < seconds *. 1e9 do
    if !refs = [] || Stat.ns_since !last_ref >= ref_every_ns then begin
      Gc.minor ();
      let (), ns = Stat.time reference in
      refs := (ns, !n) :: !refs;
      last_ref := Stat.now_ns ()
    end;
    List.iter add (pass ())
  done;
  let lat = Array.sub !lat 0 !n and refs = Array.of_list (List.rev !refs) in
  let lat_ref = Array.make !n 0. in
  Array.iteri
    (fun j (r, first) ->
      let r_next, stop = if j + 1 < Array.length refs then refs.(j + 1) else (r, !n) in
      let unit = (r +. r_next) /. 2. in
      for i = first to stop - 1 do
        lat_ref.(i) <- lat.(i) /. unit
      done)
    refs;
  {
    lat;
    lat_ref;
    work = !work;
    secs = Array.fold_left ( +. ) 0. lat /. 1e9;
    ref_ns = Array.fold_left (fun a (r, _) -> a +. r) 0. refs;
    ref_n = Array.length refs;
  }

let session ?(finish = ignore) pass = { timed = (fun sec -> loop_for sec pass); finish }

(* fuzz_sweep: [Diff.run] at fresh seeds, every bus, all three
   schedulers, design cache on, one domain. Each pass's digest must equal
   what [splice fuzz --seed S --count N] prints. *)
let fuzz_sweep ctx =
  let next_seed = Inputs.fuzz_seeds ctx.seed in
  let passes = ref [] in
  let pass () =
    let s = next_seed () in
    let r, ns =
      Stat.time (fun () ->
          span ctx ~layer:"check" ~name:"Diff.run" (fun () ->
              Splice.Diff.run (Inputs.fuzz_config s)))
    in
    passes := (s, r) :: !passes;
    [ (float_of_int r.Splice.Diff.r_calls, ns) ]
  in
  ignore (pass ());
  let finish () =
    let passes = List.rev !passes in
    let file k = Filename.concat ctx.out (Printf.sprintf "fuzz-cli-%d.txt" k) in
    let status =
      Proc.run_all ~par:2
        (List.mapi
           (fun k (s, _) ->
             ( ctx.cli,
               [ "fuzz"; "--seed"; string_of_int s; "--count";
                 string_of_int Inputs.fuzz_count; "-q" ],
               file k ))
           passes)
    in
    List.iteri
      (fun k (s, (r : Splice.Diff.report)) ->
        let out = In_channel.with_open_bin (file k) In_channel.input_all in
        Sys.remove (file k);
        let what = Printf.sprintf "fuzz pass seed %d" s in
        match Gates.cli_fuzz_digest out with
        | Some d when r.r_failure = None && status.(k) = Unix.WEXITED 0 ->
            Report.check_digest ctx.tally ~what ~expected:d ~got:r.r_digest
        | _ -> Report.check ctx.tally ~what:(what ^ ": sweep failed") false)
      passes
  in
  session ~finish pass

(* eval_grid: the Fig 9.2 grid again and again, cache on, one domain.
   The grid is fixed by the paper, so the seed changes nothing here. *)
let eval_grid ctx =
  let grid () =
    let rows, ns =
      Stat.time (fun () ->
          span ctx ~layer:"eval" ~name:"Cycles.measure" (fun () ->
              Splice.Cycles.measure ()))
    in
    [ (float_of_int (Gates.check_grid ctx.tally rows), ns) ]
  in
  ignore (grid ());
  session grid

(* gen_projects: whole-project generation from source, for the example
   specs and seeded specs on every bus. Every pass must reproduce the
   first pass's output exactly; the example projects are linted once. *)
let gen_date = "perfbench"

let gen_projects ctx =
  let examples = Inputs.example_specs () in
  let sources = examples @ Inputs.generated_specs ctx.seed in
  let pass () =
    List.map
      (fun src ->
        Stat.time (fun () ->
            span ctx ~layer:"codegen" ~name:"Project.from_source" (fun () ->
                match Splice.Project.from_source ~gen_date src with
                | p -> Some p
                | exception (Splice.Error.Splice_error _ | Failure _) -> None)))
      sources
  in
  let digest results =
    if List.for_all (fun (p, _) -> p <> None) results then
      Some (Gates.projects_digest (List.filter_map fst results))
    else None
  in
  let first = pass () in
  let expected = digest first in
  Report.check ctx.tally ~what:"gen: a project failed to generate" (expected <> None);
  List.iteri
    (fun i (p, _) ->
      match p with
      | Some p when i < List.length examples ->
          let issues = Gates.lint_project p in
          Report.check ctx.tally ~what:("gen: lint: " ^ String.concat "; " issues) (issues = [])
      | _ -> ())
    first;
  session (fun () ->
      let results = pass () in
      Report.check ctx.tally ~what:"gen: output differs from the first pass"
        (expected <> None && digest results = expected);
      List.map (fun (_, ns) -> (1., ns)) results)

(* The serve mix for the traced run's probes: [splice serve -j 2] as its
   own process, driven in a closed loop over two connections by the
   seeded 70/20/10 fuzz/eval/spec mix; 1,200 requests, so p99 has 12
   beyond it. Returns the daemon's start-up seconds (spawn until the first
   ping reply) and the requests. *)
let serve_probe ctx () =
  let fuzz = Inputs.serve_fuzz_requests ctx.seed in
  let specs = Array.of_list (Inputs.example_specs ()) in
  let exp = Serve_mix.expected ~fuzz ~specs in
  let next = Inputs.serve_stream ctx.seed ~fuzz ~specs in
  let d, startup = Serve_mix.start ctx.cli in
  Fun.protect
    ~finally:(fun () -> Serve_mix.stop d)
    (fun () ->
      let drive n =
        fst (Serve_mix.drive d ~next ~exp ~tally:ctx.tally ~stop:(fun k _ -> k >= n))
      in
      ignore (drive 50);
      (startup, drive 1200))

type t = {
  name : string;
  prepare : Ctx.t -> session;
  work : string;  (** what [work_per_ref] counts, by its name in the issue *)
  op : string;  (** what one latency sample times *)
}

let all =
  [
    { name = "fuzz_sweep"; prepare = fuzz_sweep; work = "fuzz.calls_per_s"; op = "sweep pass" };
    { name = "eval_grid"; prepare = eval_grid; work = "eval.sim_cycles_per_s"; op = "grid" };
    { name = "gen_projects"; prepare = gen_projects; work = "gen.projects_per_s"; op = "project" };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
