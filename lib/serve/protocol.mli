(** Wire protocol of the simulation service.

    Requests and replies are single-line JSON objects ({!Splice_obs.Json})
    over TCP — one request per line, one reply per line, in order. A
    request carries a [kind] field naming the operation plus
    kind-specific parameters; the optional [id] member (any JSON value)
    is echoed verbatim in the reply so clients can correlate pipelined
    requests. Replies always carry the server-assigned [req] serial,
    [kind], [ok], an [outcome] from {!outcomes}, and — for executed
    requests — a [spans] tree (queue_wait / elaborate / simulate /
    reply) plus [cache_hits]/[cache_misses]: a fuzz request's replay
    counts ({!Splice_check.Diff.report}), 0 for every other kind. *)

type request =
  | Spec of { source : string }  (** parse + validate a specification *)
  | Eval  (** the Fig 9.2 grid; replies with rows and their digest *)
  | Fuzz of {
      seed : int;
      count : int;
      bus : string option;  (** [None] = every registered bus *)
      scheds : Splice_sim.Kernel.sched list;
      ratio : (int * int) option;
      depth : int option;
      cache : bool;
    }  (** a differential fuzz run; failures carry the recorder dump *)
  | Trace of { dump : string }  (** summarize a flight-recorder dump *)
  | Sleep of { ms : int }  (** occupies an executor — for drain tests *)
  | Ping
  | Stats
  | Shutdown

val kind_name : request -> string
val kinds : string list

val max_count : int
(** Upper bound on [Fuzz.count] — the daemon is a shared resource. *)

type outcome = Ok_ | Rejected | Failed | Overloaded | Errored | Draining

val outcome_name : outcome -> string
val outcomes : string list
val ok_of_outcome : outcome -> bool

val parse : Splice_obs.Json.t -> (request, string) result
(** Members a kind does not read are ignored, so a request from an older
    client (one still sending [cache_size], say) parses. A fuzz
    request's [count], [sched], [ratio] and [depth] go through
    {!Splice_check.Diff}'s option parsers — the checks [splice fuzz]
    applies — plus the {!max_count} bound. *)

val parse_line : string -> (request, string) result

(** {1 Spans} *)

type span = { sp_name : string; sp_ns : int; sp_children : span list }

val span : ?children:span list -> string -> int -> span
val span_json : span -> Splice_obs.Json.t

(** {1 Reply envelope} *)

val reply :
  req:int ->
  ?id:Splice_obs.Json.t ->
  kind:string ->
  outcome:outcome ->
  ?fields:(string * Splice_obs.Json.t) list ->
  ?spans:span list ->
  unit ->
  Splice_obs.Json.t

val encode_reply :
  req:int ->
  ?id:Splice_obs.Json.t ->
  kind:string ->
  outcome:outcome ->
  ?fields:(string * Splice_obs.Json.t) list ->
  (int -> span list) ->
  string
(** [encode_reply ... spans_of] encodes {!reply} once, with spans that may
    price that encode: everything but [spans] is encoded first, and
    [spans_of] receives the wall nanoseconds it took. The result equals
    [Json.to_string (reply ... ~spans:(spans_of ns) ())]. *)
