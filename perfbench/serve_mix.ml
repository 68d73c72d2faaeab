(* The serve_mix workload: [splice serve -j 2] in its own process, driven
   by this process in a closed loop over two connections — each
   connection sends its next request only when the previous reply has
   arrived, like [splice client] and the CI smoke step. *)

(* [out] is the daemon's stdout, held open until it exits so its last
   words never hit a closed pipe. *)
type daemon = { pid : int; port : int; out : Unix.file_descr }

(* Line-buffered socket. *)
type conn = { fd : Unix.file_descr; buf : Buffer.t }

let read_chunk = Bytes.create 65536

(* A complete line already buffered, if any. *)
let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)

(* Read what is available; false at end of stream. *)
let fill c =
  let n = Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) in
  Buffer.add_subbytes c.buf read_chunk 0 n;
  n > 0

let timeout_s = 60.

let rec recv_line c =
  match take_line c with
  | Some l -> l
  | None -> (
      match Unix.select [ c.fd ] [] [] timeout_s with
      | [], _, _ -> failwith "serve: no reply within the timeout"
      | _ -> if fill c then recv_line c else failwith "serve: connection closed")

let send c line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Start the daemon and wait for its first ping reply; returns it with
   the seconds that took. *)
let start cli =
  let t0 = Stat.now_ns () in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () -> Proc.spawn ~stdout:w cli [ "serve"; "-j"; "2"; "--port"; "0" ])
  in
  let out = { fd = r; buf = Buffer.create 256 } in
  let banner = recv_line out in
  let port =
    match Scanf.sscanf_opt banner "splice serve: listening on %s@:%d" (fun _ p -> p) with
    | Some p -> p
    | None -> failwith ("serve: unexpected banner: " ^ banner)
  in
  let c = connect port in
  send c "{\"kind\":\"ping\"}";
  let reply = recv_line c in
  close c;
  (match Report.reply_outcome (Splice.Json.of_string_exn reply) with
  | Ok () -> ()
  | Error o -> failwith ("serve: ping answered " ^ o));
  ({ pid; port; out = r }, Stat.ns_since t0 /. 1e9)

let stop d =
  (try
     let c = connect d.port in
     send c "{\"kind\":\"shutdown\"}";
     ignore (recv_line c);
     close c
   with Failure _ | Unix.Unix_error _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Proc.wait d.pid);
  Unix.close d.out

(* What each request must answer, computed in-process before any daemon
   starts. *)
type expected = {
  fuzz : (int * string, string) Hashtbl.t;  (** (seed, bus) -> digest *)
  specs : (string, string * string list) Hashtbl.t;  (** source -> device, funcs *)
}

let hex d = Printf.sprintf "0x%016Lx" d

let expected ~fuzz ~specs =
  let f = Hashtbl.create 128 and s = Hashtbl.create 8 in
  Array.iter
    (fun k ->
      let r = Splice.Diff.run (Inputs.serve_fuzz_config k) in
      Hashtbl.replace f k (hex r.Splice.Diff.r_digest))
    fuzz;
  Array.iter
    (fun src ->
      let spec =
        Splice.Validate.of_string_exn ~lookup_bus:Splice.Registry.lookup_caps src
      in
      Hashtbl.replace s src
        ( spec.Splice.Spec.device_name,
          List.map (fun (fn : Splice.Spec.func) -> fn.name) spec.funcs ))
    specs;
  { fuzz = f; specs = s }

(* One answered request, as seen by the client and as its reply reports. *)
type sample = {
  kind : string;
  req : int;  (** the daemon's request serial *)
  sent : int64;
  latency_ns : float;
  queue_ns : float;
  elab_ns : float;
  sim_ns : float;
  reply_ns : float;
}

let span_ns j name =
  let open Splice.Json in
  let rec find = function
    | [] -> None
    | s :: rest -> (
        if Option.bind (member "name" s) to_str = Some name then
          Option.bind (member "ns" s) to_int
        else
          match Option.bind (member "children" s) to_list with
          | Some cs -> ( match find cs with Some v -> Some v | None -> find rest)
          | None -> find rest)
  in
  Option.bind (member "spans" j) to_list
  |> Option.map find |> Option.join |> Option.value ~default:0 |> float_of_int

let correct exp r j =
  let open Splice.Json in
  let str k = Option.bind (member k j) to_str in
  match r with
  | Inputs.Fuzz { seed; bus } -> str "digest" = Hashtbl.find_opt exp.fuzz (seed, bus)
  | Eval -> str "digest" = Some (hex Gates.eval_digest)
  | Spec src -> (
      match Hashtbl.find_opt exp.specs src with
      | Some (dev, funcs) ->
          str "device" = Some dev
          && Option.map (List.filter_map to_str) (Option.bind (member "funcs" j) to_list)
             = Some funcs
      | None -> false)

let spec_latencies samples =
  List.filter_map (fun s -> if s.kind = "spec" then Some s.latency_ns else None) samples

(* Phases of a served request as spans under its client-side span: the
   reply reports their durations, laid end to end from the send. *)
let record_spans spans (samples : sample list) =
  List.iter
    (fun (s : sample) ->
      let t1 = Int64.add s.sent (Int64.of_float s.latency_ns) in
      let id =
        Span.add spans ~req:s.req ~layer:"serve" ~name:("request " ^ s.kind) ~t0:s.sent ~t1
      in
      let elab, sim =
        match s.kind with
        | "fuzz" -> ("cache", "check")
        | "eval" -> ("sim", "eval")
        | _ -> ("syntax", "syntax")
      in
      ignore
        (List.fold_left
           (fun t0 (layer, name, ns) ->
             let t1 = Int64.add t0 (Int64.of_float ns) in
             ignore (Span.add spans ~req:s.req ~under:id ~layer ~name ~t0 ~t1);
             t1)
           s.sent
           [
             ("par", "queue_wait", s.queue_ns);
             (elab, "elaborate", s.elab_ns);
             (sim, "simulate", s.sim_ns);
             ("serve", "reply", s.reply_ns);
           ]))
    samples

(* Drive [d] over two connections until [stop n elapsed_ns] holds; every
   reply is checked into [tally]. Returns the samples in completion
   order and the wall nanoseconds. *)
let drive d ~next ~exp ~tally ~stop =
  let conns = Array.init 2 (fun _ -> connect d.port) in
  let inflight = Array.make 2 None in
  let samples = ref [] and n = ref 0 and id = ref 0 in
  let t0 = Stat.now_ns () in
  let issue i =
    let r = next () in
    incr id;
    inflight.(i) <- Some (r, Stat.now_ns ());
    send conns.(i) (Inputs.request_line !id r)
  in
  let handle i line =
    let t = Stat.now_ns () in
    match inflight.(i) with
    | None -> failwith "serve: reply with no request"
    | Some (r, sent) ->
        inflight.(i) <- None;
        incr n;
        let j = Splice.Json.of_string_exn line in
        let kind = Inputs.kind_name r in
        Report.count_reply tally ~kind ~correct:(correct exp r) j;
        samples :=
          {
            kind;
            req = Option.value ~default:0 (Option.bind (Splice.Json.member "req" j) Splice.Json.to_int);
            sent;
            latency_ns = Int64.to_float (Int64.sub t sent);
            queue_ns = span_ns j "queue_wait";
            elab_ns = span_ns j "elaborate";
            sim_ns = span_ns j "simulate";
            reply_ns = span_ns j "reply";
          }
          :: !samples
  in
  Fun.protect
    ~finally:(fun () -> Array.iter close conns)
    (fun () ->
      Array.iteri (fun i _ -> issue i) conns;
      while Array.exists Option.is_some inflight do
        let fds = List.filter_map (fun i -> Option.map (fun _ -> conns.(i).fd) inflight.(i)) [ 0; 1 ] in
        (match Unix.select fds [] [] timeout_s with
        | [], _, _ -> failwith "serve: no reply within the timeout"
        | ready, _, _ ->
            Array.iter
              (fun c ->
                if List.mem c.fd ready && not (fill c) then failwith "serve: connection closed")
              conns);
        Array.iteri
          (fun i c ->
            match take_line c with
            | Some line ->
                handle i line;
                if not (stop !n (Stat.ns_since t0)) then issue i
            | None -> ())
          conns
      done;
      (List.rev !samples, Stat.ns_since t0))
