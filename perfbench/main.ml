(* The benchmark: one workload per run, its end-to-end metrics (untraced)
   or the per-layer metrics (traced), and a last line of JSON.

     main.exe --workload W --seed N --seconds S --trace 0|1 --cli SPLICE

   Run it through perfbench/run.py, which builds it and the CLI first. *)

(* When this process started; a set-up run reports the time from here. *)
let started = Stat.now_ns ()

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 --cli SPLICE \
     [--out DIR] [--setup-only]";
  exit 2

let args () =
  let a = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | "--setup-only" :: rest -> go (("--setup-only", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] a in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  (kv, get, int)

(* Seconds before the timed phase, in [n] fresh processes, each timing
   itself from its start through input generation and the first pass. *)
let setup_in_fresh_processes ctx (w : Workloads.t) ~n =
  let out = Filename.concat ctx.Ctx.out "setup.txt" in
  let times =
    List.init n (fun _ ->
        let status =
          (Proc.run_all ~par:1
             [
               ( Sys.executable_name,
                 [ "--workload"; w.name; "--seed"; string_of_int ctx.seed;
                   "--cli"; ctx.cli; "--out"; ctx.out; "--setup-only" ],
                 out );
             ]).(0)
        in
        let s = In_channel.with_open_bin out In_channel.input_all in
        match float_of_string_opt (String.trim s) with
        | Some s when status = Unix.WEXITED 0 -> s
        | _ ->
            Report.check ctx.tally ~what:"set-up run failed" false;
            nan)
  in
  Sys.remove out;
  times

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* The host this runs on switches between a fast and a slow speed (see
   [Workloads.reference]). Throughput and latency are reported in units of
   one reference run, measured in the same timed phase; their values in
   seconds are printed. The median op is printed only: in seconds it jumps
   between the two speeds as their shares of a run cross one half. Set-up
   is timed in two groups, before and after the timed phase. *)
let untraced ctx (w : Workloads.t) ~seconds =
  let setup_before = setup_in_fresh_processes ctx w ~n:7 in
  let session = w.prepare ctx in
  let t = session.timed seconds in
  session.finish ();
  let rss = Proc.peak_rss_mb "self" in
  let setup_s = Stat.median (setup_before @ setup_in_fresh_processes ctx w ~n:8) in
  let lat = Array.to_list t.lat in
  let n = List.length lat in
  let ms p = Stat.percentile lat p /. 1e6 in
  let lat_ref = Array.to_list t.lat_ref in
  let in_refs p = Stat.percentile lat_ref p in
  Printf.printf "workload %s, seed %d, %.0f s timed, %d %s samples\n" w.name ctx.seed
    seconds n w.op;
  Printf.printf "  %-24s %14.4f ms   (mean of %d runs)\n" "reference" (Workloads.ref_mean t /. 1e6)
    t.ref_n;
  Printf.printf "  %-24s %14.4f 1/s   %14.6f 1/ref\n" w.work (Workloads.rate t) (Workloads.per_ref t);
  Printf.printf "  %-24s %14.4f ms    %14.6f ref\n" "median op" (ms 50.) (in_refs 50.);
  Printf.printf "  %-24s %14.4f ms    %14.6f ref   (%d samples beyond)\n" "p95 op" (ms 95.)
    (in_refs 95.) (Stat.beyond ~n 95.);
  Option.iter
    (fun p ->
      Printf.printf "  %-24s %14.4f ms    %14.6f ref   (p%g, the highest with 10 samples beyond: %d)\n"
        "tail" (ms p) (in_refs p) p (Stat.beyond ~n p))
    (Stat.tail_percentile n);
  Printf.printf "  %-24s %14.6f        (%d of %d ops failed)\n" "error_rate"
    (Report.error_rate ctx.tally) ctx.tally.failed ctx.tally.attempted;
  [
    Report.metric "setup_s" "s" setup_s;
    Report.metric "peak_rss_mb" "MB" rss;
    Report.metric "work_per_ref" "1/ref" (Workloads.per_ref t);
    Report.metric "op_p95_ref" "ref" (in_refs 95.);
  ]

let traced ctx (w : Workloads.t) ~seconds =
  let session = w.prepare ctx in
  (* untraced and traced quarters alternate, so drift in the machine's
     speed lands on both sides *)
  let quarter on =
    Span.set ctx.Ctx.spans on;
    session.timed (seconds /. 4.)
  in
  let p1 = quarter false in
  let t1 = quarter true in
  let p2 = quarter false in
  let t2 = quarter true in
  let plain = Workloads.(per_ref (join p1 p2)) and with_spans = Workloads.(per_ref (join t1 t2)) in
  session.finish ();
  let overhead = Stat.pct_over plain with_spans in
  let layers = Probes.run ctx ~serve:(Workloads.serve_probe ctx) in
  let spans = Span.spans ctx.spans in
  let base = Printf.sprintf "%s-seed%d" w.name ctx.seed in
  let span_file = Filename.concat ctx.out ("spans-" ^ base ^ ".json") in
  let table_file = Filename.concat ctx.out ("layers-" ^ base ^ ".txt") in
  let table = Span.layer_table spans in
  write_file span_file (Splice.Json.to_string (Span.to_json spans));
  write_file table_file table;
  Printf.printf "workload %s, seed %d: traced run\n" w.name ctx.seed;
  List.iter
    (fun (m : Report.metric) -> Printf.printf "  %-28s %16.4f %s\n" m.name m.value m.unit_)
    layers;
  Printf.printf "self time per layer (%d spans, written to %s):\n%s" (List.length spans)
    span_file table;
  Printf.printf "tracing overhead on %s: %+.2f%% (%.6f/ref untraced, %.6f/ref traced)\n"
    w.name overhead plain with_spans;
  layers @ [ Report.metric "trace.overhead_pct" "%" overhead ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let kv, get, int = args () in
  let w = match Workloads.find (get "--workload") with Some w -> w | None -> usage () in
  let out = Option.value (List.assoc_opt "--out" kv) ~default:"perfbench/out" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let ctx =
    {
      Ctx.seed = int "--seed";
      cli = get "--cli";
      out;
      tally = Report.tally ();
      spans = Span.create ();
    }
  in
  if List.mem_assoc "--setup-only" kv then begin
    ignore (w.prepare ctx);
    print_endline (string_of_float (Stat.ns_since started /. 1e9));
    exit (if ctx.tally.failed = 0 then 0 else 1)
  end;
  let seconds = float_of_int (int "--seconds") in
  let metrics =
    match int "--trace" with
    | 0 -> untraced ctx w ~seconds
    | 1 -> traced ctx w ~seconds
    | _ -> usage ()
  in
  print_endline (Report.result_line ctx.tally metrics);
  exit (Report.exit_code ctx.tally)
