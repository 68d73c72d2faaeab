(* Wire protocol of the simulation service: one JSON object per line in,
   one JSON object per line out. Parsing is strict about what it accepts
   (unknown kinds and malformed fields are rejected with a one-line
   diagnostic) and bounded by the server's line limit before it ever
   reaches this module, so a hostile client can neither wedge the framing
   nor make the daemon buffer unboundedly. *)

open Splice_obs

type request =
  | Spec of { source : string }
  | Eval
  | Fuzz of {
      seed : int;
      count : int;
      bus : string option;
      scheds : Splice_sim.Kernel.sched list;
      ratio : (int * int) option;
      depth : int option;
      cache : bool;
    }
  | Trace of { dump : string }
  | Sleep of { ms : int }
  | Ping
  | Stats
  | Shutdown

let kind_name = function
  | Spec _ -> "spec"
  | Eval -> "eval"
  | Fuzz _ -> "fuzz"
  | Trace _ -> "trace"
  | Sleep _ -> "sleep"
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let kinds = [ "spec"; "eval"; "fuzz"; "trace"; "sleep"; "ping"; "stats"; "shutdown" ]

type outcome = Ok_ | Rejected | Failed | Overloaded | Errored | Draining

let outcome_name = function
  | Ok_ -> "ok"
  | Rejected -> "rejected"
  | Failed -> "failed"
  | Overloaded -> "overloaded"
  | Errored -> "error"
  | Draining -> "shutting_down"

let outcomes = [ "ok"; "rejected"; "failed"; "overloaded"; "error"; "shutting_down" ]
let ok_of_outcome = function Ok_ -> true | _ -> false

(* the daemon is a shared resource: cap the work one request may ask for *)
let max_count = 10_000

(* ---- request parsing ---------------------------------------------- *)

let str_field j name = Option.bind (Json.member name j) Json.to_str
let int_field j name = Option.bind (Json.member name j) Json.to_int

let bool_field j name =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let parse_fuzz j =
  let ( let* ) = Result.bind in
  let* seed =
    match int_field j "seed" with
    | Some s -> Ok s
    | None -> Error "fuzz: missing integer field \"seed\""
  in
  let* count =
    Splice_check.Diff.check_count
      (Option.value ~default:50 (int_field j "count"))
  in
  let* () =
    if count <= max_count then Ok ()
    else Error (Printf.sprintf "fuzz: count must be at most %d" max_count)
  in
  let* bus =
    match str_field j "bus" with
    | None -> Ok None
    | Some b when Splice_buses.Registry.find b <> None -> Ok (Some b)
    | Some b -> Error (Printf.sprintf "unknown bus %S" b)
  in
  let* scheds =
    Splice_check.Diff.scheds_of_string
      (Option.value ~default:"all" (str_field j "sched"))
  in
  let* ratio =
    match str_field j "ratio" with
    | None -> Ok None
    | Some r -> Result.map Option.some (Splice_check.Diff.ratio_of_string r)
  in
  let* depth =
    match int_field j "depth" with
    | None -> Ok None
    | Some d -> Result.map Option.some (Splice_check.Diff.check_depth d)
  in
  let cache = Option.value ~default:true (bool_field j "cache") in
  Ok (Fuzz { seed; count; bus; scheds; ratio; depth; cache })

let parse j =
  match j with
  | Json.Obj _ -> (
      match str_field j "kind" with
      | None -> Error "missing string field \"kind\""
      | Some "spec" -> (
          match str_field j "source" with
          | Some source -> Ok (Spec { source })
          | None -> Error "spec: missing string field \"source\"")
      | Some "eval" -> Ok Eval
      | Some "fuzz" -> parse_fuzz j
      | Some "trace" -> (
          match str_field j "dump" with
          | Some dump -> Ok (Trace { dump })
          | None -> Error "trace: missing string field \"dump\"")
      | Some "sleep" -> (
          match int_field j "ms" with
          | Some ms when ms >= 0 && ms <= 60_000 -> Ok (Sleep { ms })
          | Some _ -> Error "sleep: ms must be in 0..60000"
          | None -> Error "sleep: missing integer field \"ms\"")
      | Some "ping" -> Ok Ping
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some k -> Error (Printf.sprintf "unknown request kind %S" k))
  | _ -> Error "request must be a JSON object"

let parse_line line =
  match Json.of_string line with
  | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
  | Ok j -> parse j

(* ---- spans --------------------------------------------------------- *)

type span = { sp_name : string; sp_ns : int; sp_children : span list }

let span ?(children = []) name ns =
  { sp_name = name; sp_ns = ns; sp_children = children }

let rec span_json s =
  Json.Obj
    ([ ("name", Json.String s.sp_name); ("ns", Json.Int s.sp_ns) ]
    @
    match s.sp_children with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map span_json cs)) ])

(* ---- reply envelope ------------------------------------------------ *)

let reply ~req ?id ~kind ~outcome ?(fields = []) ?(spans = []) () =
  Json.Obj
    ([ ("req", Json.Int req) ]
    @ (match id with None -> [] | Some id -> [ ("id", id) ])
    @ [
        ("kind", Json.String kind);
        ("ok", Json.Bool (ok_of_outcome outcome));
        ("outcome", Json.String (outcome_name outcome));
      ]
    @ fields
    @
    match spans with
    | [] -> []
    | spans -> [ ("spans", Json.List (List.map span_json spans)) ])

(* A reply whose spans price its own encoding, encoded once: every member
   but [spans] (always last) is written first, [spans_of] gets the
   nanoseconds that took, and its spans close the object. The bytes are
   those of [Json.to_string (reply ... ~spans:(spans_of ns) ())]. *)
let encode_reply ~req ?id ~kind ~outcome ?fields spans_of =
  let t0 = Obs.now_ns () in
  let buf = Buffer.create 1024 in
  Json.to_buffer buf (reply ~req ?id ~kind ~outcome ?fields ());
  match spans_of (Obs.now_ns () - t0) with
  | [] -> Buffer.contents buf
  | spans ->
      Buffer.truncate buf (Buffer.length buf - 1);
      Buffer.add_string buf {|,"spans":|};
      Json.to_buffer buf (Json.List (List.map span_json spans));
      Buffer.add_char buf '}';
      Buffer.contents buf
