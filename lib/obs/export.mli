(** Exporters for the observability layer.

    - {!stats_report}: human-readable dump of one metrics registry —
      counters, gauges, then histograms (empty buckets omitted).
    - {!chrome_trace}: Chrome trace-event JSON (the array form): one
      process per [(label, recorder)] pair, one thread per transaction
      track ([bus/<name>], [sis/write], [sis/read], [driver/<func>]), and
      every transaction the recorder's window holds — paired as
      {!Query.transactions} pairs them — a complete ["X"] event whose
      [ts]/[dur] are bus-clock cycles. SIS spans are named
      [write id=N]/[read id=N], driver spans [call <func> (N op(s))], bus
      spans by their burst length. Open the file at [chrome://tracing] or
      [ui.perfetto.dev]. *)

val stats_report : ?label:string -> Metrics.t -> string

val chrome_trace : (string * Recorder.t) list -> Json.t
val chrome_trace_string : (string * Recorder.t) list -> string

val write_file : string -> string -> unit
(** [write_file path contents] — tiny helper shared by the CLI flags. *)
