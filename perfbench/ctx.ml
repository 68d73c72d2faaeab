(* What every workload and probe of one run shares. *)
type t = {
  seed : int;
  cli : string;  (** the built [splice] executable *)
  out : string;  (** directory for the span file and scratch output *)
  tally : Report.tally;
  spans : Span.recorder;
}

let span t ~layer ~name f = Span.around t.spans ~layer ~name f
