(* Correctness tally and the result line every run ends with. *)

(* Ops attempted and failed. An op is the unit a workload checks: a fuzz
   pass, an evaluation grid, a generation pass, a served request, or a
   set-up check. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Count one op; a failed one is explained on stderr. *)
let check t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "FAIL %s\n%!" what
  end

let check_digest t ~what ~expected ~got =
  check t
    ~what:(Printf.sprintf "%s: digest 0x%016Lx, expected 0x%016Lx" what got expected)
    (Int64.equal expected got)

let error_rate t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

let exit_code t = if t.failed = 0 && t.attempted > 0 then 0 else 1

(* A served reply counts as a success only when it is [ok]: a refused
   ([rejected]) or shed ([overloaded]) request is a failure like a wrong
   answer. Returns the outcome for the failure message. *)
let reply_outcome j =
  let open Splice.Json in
  let outcome = Option.bind (member "outcome" j) to_str in
  match (member "ok" j, outcome) with
  | Some (Bool true), Some "ok" -> Ok ()
  | _, Some o -> Error o
  | _, None -> Error "no outcome"

(* Count one served reply: a failure unless it is [ok] and [correct]. *)
let count_reply t ~kind ~correct j =
  match reply_outcome j with
  | Error o -> check t ~what:(Printf.sprintf "serve %s: %s" kind o) false
  | Ok () -> check t ~what:(Printf.sprintf "serve %s: wrong answer" kind) (correct j)

(* Metric names: [A-Za-z0-9_.-]+, starting with a letter or a digit, at
   most 64 characters. *)
let valid_name s =
  let alnum c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  s <> ""
  && String.length s <= 64
  && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The last line of a run. Raises [Invalid_argument] on a malformed name
   or a non-finite value, which would make the line unreadable. *)
let result_line t metrics =
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("bad metric name " ^ m.name);
      if not (Float.is_finite m.value) then
        invalid_arg (Printf.sprintf "metric %s is not finite" m.name))
    metrics;
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (exit_code t = 0) t.attempted t.failed;
  List.iteri
    (fun i m ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.name m.value m.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
