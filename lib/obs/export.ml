(* ------------------------------------------------------------------ *)
(* Plain-text stats report                                             *)
(* ------------------------------------------------------------------ *)

let stats_report ?label m =
  let buf = Buffer.create 1024 in
  (match label with
  | Some l -> Buffer.add_string buf (Printf.sprintf "== metrics: %s ==\n" l)
  | None -> Buffer.add_string buf "== metrics ==\n");
  let counters = Metrics.counters m in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun c ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %10d\n" (Metrics.counter_name c)
             (Metrics.count c)))
      counters
  end;
  let gauges = Metrics.gauges m in
  if gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun g ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %10d\n" (Metrics.gauge_name g)
             (Metrics.level g)))
      gauges
  end;
  let histograms = Metrics.histograms m in
  if histograms <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun h ->
        Buffer.add_string buf
          (Printf.sprintf "  %-40s n=%d sum=%d min=%d max=%d mean=%.2f\n"
             (Metrics.histogram_name h) (Metrics.observations h)
             (Metrics.total h) (Metrics.min_value h) (Metrics.max_value h)
             (Metrics.mean h));
        List.iter
          (fun (limit, count) ->
            if count > 0 then
              let label =
                match limit with
                | Some l -> Printf.sprintf "<=%d" l
                | None -> "overflow"
              in
              Buffer.add_string buf (Printf.sprintf "    %-10s %10d\n" label count))
          (Metrics.bucket_counts h))
      histograms
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

(* A span's display name from its track and its Txn_begin argument: the
   SIS function id, the driver program's op count, or the bus burst's
   word count. *)
let span_name track arg =
  match String.split_on_char '/' track with
  | [ "sis"; dir ] -> Printf.sprintf "%s id=%d" dir arg
  | [ "driver"; func ] -> Printf.sprintf "call %s (%d op(s))" func arg
  | _ -> Printf.sprintf "%d word(s)" arg

(* One trace process per (label, recorder) pair, one thread per track,
   every completed transaction (Query.transactions) a complete ("X") span
   with [ts]/[dur] in bus-clock cycles. The JSON-array form loads directly
   in chrome://tracing and ui.perfetto.dev. *)
let chrome_trace procs =
  let events =
    List.concat
      (List.mapi
         (fun pid (label, recorder) ->
           let txns = Query.transactions (Query.of_recorder recorder) in
           let tracks =
             List.sort_uniq compare
               (List.map (fun ((b : Query.event), _) -> b.ev_subject) txns)
           in
           let tid_of track =
             let rec go i = function
               | [] -> 0
               | t :: _ when t = track -> i
               | _ :: rest -> go (i + 1) rest
             in
             go 0 tracks
           in
           List.map
             (fun ((b : Query.event), dur) ->
               let track = b.ev_subject in
               Json.Obj
                 [
                   ("name", Json.String (span_name track b.ev_value));
                   ("cat", Json.String (label ^ "/" ^ track));
                   ("ph", Json.String "X");
                   ("ts", Json.Int b.ev_cycle);
                   ("dur", Json.Int dur);
                   ("pid", Json.Int pid);
                   ("tid", Json.Int (tid_of track));
                 ])
             txns)
         procs)
  in
  Json.List events

let chrome_trace_string procs = Json.to_string (chrome_trace procs)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc
