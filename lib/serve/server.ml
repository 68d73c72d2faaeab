(* The simulation service: a TCP daemon that accepts line-delimited JSON
   requests (and plain HTTP GETs on the same port for /metrics, /healthz
   and /stats), shards request execution across a `lib/par` domain pool
   with a bounded queue.

   Concurrency model. Connection I/O runs on systhreads (all on the main
   domain: blocking syscalls release the runtime lock, so reads never
   starve each other). CPU-bound execution runs on a pool of [jobs]
   worker domains, [jobs = 1] included. Admission is one counter under
   [t.lock]: requests executing or waiting. A request is admitted while
   it is below [jobs + queue_limit]; excess load is shed with an
   `overloaded` reply rather than buffered.

   Determinism contract. One request is one self-contained task on one
   domain: fuzz requests run [Diff.run] without a nested pool, so the
   report digest — and any failure dump — is byte-identical to the same
   [splice fuzz] invocation at any [-j], per the repo-wide seed-splitting
   contract. Wall-clock observability (spans, latency series) and the
   replay hit/miss counts ride alongside and never feed the digests. *)

open Splice_obs
module P = Protocol
module Pool = Splice_par.Pool

let version = "1.0.0" (* keep in step with [Splice.version] *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  jobs : int;
  queue_limit : int;
  dump_dir : string option;
  max_line : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    jobs = 1;
    queue_limit = 16;
    dump_dir = None;
    max_line = 1 lsl 20;
  }

type t = {
  cfg : config;
  fd : Unix.file_descr;
  port : int;
  pool : Pool.t;
  lock : Mutex.t;  (* guards every mutable field and both registries *)
  drained : Condition.t;
  mutable stopping : bool;
  mutable in_flight : int;
  mutable admitted : int;  (* requests executing or waiting for a worker *)
  mutable next_req : int;
  mutable served : int;
  started : int;  (* [Obs.now_ns] at creation *)
  service : Metrics.t;  (* daemon-side series: replay totals, latency *)
  sim : Metrics.t;  (* merged per-request simulation registries *)
  requests : (string * string, int ref) Hashtbl.t;  (* (kind, outcome) *)
}

(* ---- one-shot synchronization cell (pool task -> connection thread) *)

type 'a ivar = { im : Mutex.t; ic : Condition.t; mutable iv : 'a option }

let ivar () = { im = Mutex.create (); ic = Condition.create (); iv = None }

let ivar_fill i x =
  Mutex.lock i.im;
  i.iv <- Some x;
  Condition.signal i.ic;
  Mutex.unlock i.im

let ivar_wait i =
  Mutex.lock i.im;
  while match i.iv with None -> true | Some _ -> false do
    Condition.wait i.ic i.im
  done;
  let x = match i.iv with Some x -> x | None -> assert false in
  Mutex.unlock i.im;
  x

(* ---- request execution (on a worker domain) ------------------------- *)

type exec = {
  x_outcome : P.outcome;
  x_fields : (string * Json.t) list;
  x_elab_ns : int;
  x_sim_ns : int;
  x_hits : int;
  x_misses : int;
  x_metrics : Metrics.t option;  (* simulation registry to merge *)
  x_dump : string option;  (* flight-recorder dump of a failing run *)
}

let plain outcome fields =
  {
    x_outcome = outcome;
    x_fields = fields;
    x_elab_ns = 0;
    x_sim_ns = 0;
    x_hits = 0;
    x_misses = 0;
    x_metrics = None;
    x_dump = None;
  }

let rejected msg = plain P.Rejected [ ("error", Json.String msg) ]

let exec_spec source =
  let t0 = Obs.now_ns () in
  match
    Splice_syntax.Validate.of_string
      ~lookup_bus:Splice_buses.Registry.lookup_caps source
  with
  | Ok spec ->
      let open Splice_syntax in
      {
        (plain P.Ok_
           [
             ("device", Json.String spec.Spec.device_name);
             ("bus", Json.String spec.Spec.bus_name);
             ( "funcs",
               Json.List
                 (List.map
                    (fun (f : Spec.func) -> Json.String f.Spec.name)
                    spec.Spec.funcs) );
             ("spec", Json.String (Format.asprintf "%a" Spec.pp spec));
           ])
        with
        x_elab_ns = Obs.now_ns () - t0;
      }
  | Error issues ->
      rejected
        (String.concat "\n"
           (List.map
              (fun i -> Format.asprintf "%a" Splice_syntax.Validate.pp_issue i)
              issues))

let exec_eval () =
  let t0 = Obs.now_ns () in
  let drows = Splice_eval.Cycles.measure_detailed () in
  let total = Obs.now_ns () - t0 in
  let open Splice_eval.Cycles in
  let rows = List.map (fun d -> d.row) drows in
  let digest = Splice_eval.Cycles.digest rows in
  let elab =
    List.fold_left
      (fun acc d ->
        let k = d.kstats in
        acc
        + Int64.to_int
            (Int64.add k.Splice_sim.Kernel.elaborate_ns
               (Int64.add k.Splice_sim.Kernel.seal_ns
                  k.Splice_sim.Kernel.compile_ns)))
      0 drows
  in
  let elab = min elab total in
  {
    (plain P.Ok_
       [
         ("digest", Json.String (Printf.sprintf "0x%016Lx" digest));
         ( "rows",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [
                      ( "impl",
                        Json.String
                          (Splice_devices.Interpolator.impl_name r.impl) );
                      ("cycles", Json.Int r.total);
                    ])
                rows) );
       ])
    with
    x_elab_ns = elab;
    x_sim_ns = max 0 (total - elab);
    x_metrics = Some (Metrics.merged (List.map (fun d -> Obs.metrics d.obs) drows));
  }

let exec_fuzz ~seed ~count ~bus ~scheds ~ratio ~depth ~cache =
  let open Splice_check in
  let cfg =
    {
      Diff.default_config with
      seed;
      count;
      buses = Option.to_list bus;
      scheds;
      ratio;
      depth;
      cache;
    }
  in
  let r = Diff.run cfg in
  let base =
    [
      ("iterations", Json.Int r.Diff.r_iterations);
      ("calls", Json.Int r.Diff.r_calls);
      ("buses", Json.List (List.map (fun b -> Json.String b) r.Diff.r_buses));
      ("digest", Json.String (Printf.sprintf "0x%016Lx" r.Diff.r_digest));
    ]
  in
  let outcome, fields, dump =
    match r.Diff.r_failure with
    | None -> (P.Ok_, base, None)
    | Some f ->
        ( P.Failed,
          base
          @ [
              ("iteration", Json.Int f.Diff.f_iteration);
              ("seed", Json.Int f.Diff.f_seed);
              ("bus", Json.String f.Diff.f_bus);
              ("sched", Json.String (Diff.sched_name f.Diff.f_sched));
              ( "func",
                match f.Diff.f_func with
                | Some fn -> Json.String fn
                | None -> Json.Null );
              ("message", Json.String f.Diff.f_message);
              ("spec", Json.String (Specgen.render f.Diff.f_spec));
              ("repro", Json.String (Diff.repro_command f));
            ],
          f.Diff.f_dump )
  in
  {
    x_outcome = outcome;
    x_fields = fields;
    x_elab_ns = r.Diff.r_build_ns;
    x_sim_ns = r.Diff.r_sim_ns;
    x_hits = r.Diff.r_cache_hits;
    x_misses = r.Diff.r_cache_misses;
    x_metrics = None;
    x_dump = dump;
  }

let exec_trace dump =
  match Query.of_string dump with
  | Ok d -> plain P.Ok_ [ ("summary", Json.String (Query.summary d)) ]
  | Error e -> rejected (Printf.sprintf "bad dump: %s" e)

let exec_request (req : P.request) =
  try
    match req with
    | P.Spec { source } -> exec_spec source
    | P.Eval -> exec_eval ()
    | P.Fuzz { seed; count; bus; scheds; ratio; depth; cache } ->
        exec_fuzz ~seed ~count ~bus ~scheds ~ratio ~depth ~cache
    | P.Trace { dump } -> exec_trace dump
    | P.Sleep { ms } ->
        let t0 = Obs.now_ns () in
        Unix.sleepf (float_of_int ms /. 1000.);
        {
          (plain P.Ok_ [ ("slept_ms", Json.Int ms) ]) with
          x_sim_ns = Obs.now_ns () - t0;
        }
    | P.Ping | P.Stats | P.Shutdown ->
        (* handled on the connection thread, never dispatched *)
        assert false
  with e -> plain P.Errored [ ("error", Json.String (Printexc.to_string e)) ]

(* ---- service bookkeeping (all under [t.lock]) ----------------------- *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh_req t = locked t (fun () -> t.next_req <- t.next_req + 1; t.next_req)

let queue_depth t = max 0 (t.admitted - Pool.domains t.pool)

(* per-kind request latency lives in one histogram per kind, named by
   this prefix *)
let latency_prefix = "serve/latency_us/"

let record t ~kind ~(outcome : P.outcome) ~latency_ns x =
  locked t (fun () ->
      let key = (kind, P.outcome_name outcome) in
      (match Hashtbl.find_opt t.requests key with
      | Some r -> incr r
      | None -> Hashtbl.add t.requests key (ref 1));
      t.served <- t.served + 1;
      Metrics.incr (Metrics.counter t.service "serve/requests");
      Metrics.observe
        (Metrics.histogram t.service (latency_prefix ^ kind))
        (latency_ns / 1000);
      match x with
      | None -> ()
      | Some x ->
          (* always touch both, so the series exist in every exposition *)
          Metrics.add (Metrics.counter t.service "cache/hits") x.x_hits;
          Metrics.add (Metrics.counter t.service "cache/misses") x.x_misses;
          Option.iter (fun m -> Metrics.merge_into ~into:t.sim m) x.x_metrics)

(* ---- expositions ---------------------------------------------------- *)

(* the per-kind latency histograms as (kind, histogram) pairs, in
   registry order *)
let latencies t =
  let n = String.length latency_prefix in
  List.filter_map
    (fun h ->
      let name = Metrics.histogram_name h in
      if String.length name > n && String.starts_with ~prefix:latency_prefix name then
        Some (String.sub name n (String.length name - n), h)
      else None)
    (Metrics.histograms t.service)

let uptime_s t = float_of_int (Obs.now_ns () - t.started) /. 1e9

let sorted_requests t =
  List.sort compare
    (Hashtbl.fold (fun (k, o) r acc -> (k, o, !r) :: acc) t.requests [])

let metrics_exposition t =
  locked t (fun () ->
      Metrics.set (Metrics.gauge t.service "serve/queue_depth") (queue_depth t);
      Metrics.set (Metrics.gauge t.service "serve/in_flight") t.in_flight;
      let body = Openmetrics.of_metrics_body (Metrics.merged [ t.service; t.sim ]) in
      let reqs =
        Openmetrics.family ~name:"serve_requests_by" ~typ:`Counter
          (List.map
             (fun (k, o, n) ->
               ([ ("kind", k); ("outcome", o) ], Openmetrics.Int n))
             (sorted_requests t))
      in
      let quantiles =
        Openmetrics.family ~name:"serve_latency_quantile_us" ~typ:`Gauge
          (List.concat_map
             (fun (kind, h) ->
               List.map
                 (fun (q, l) ->
                   ( [ ("kind", kind); ("q", l) ],
                     Openmetrics.Int (Metrics.percentile h q) ))
                 [ (0.50, "0.5"); (0.95, "0.95"); (0.99, "0.99") ])
             (latencies t))
      in
      let build =
        Openmetrics.family ~name:"build_info" ~typ:`Gauge
          [ ([ ("version", version) ], Openmetrics.Int 1) ]
      in
      let uptime =
        Openmetrics.family ~name:"uptime_seconds" ~typ:`Gauge
          [ ([], Openmetrics.Float (uptime_s t)) ]
      in
      body ^ reqs ^ quantiles ^ build ^ uptime ^ Openmetrics.eof)

let stats_json t =
  locked t (fun () ->
      let latency =
        List.map
          (fun (kind, h) ->
            ( kind,
              Json.Obj
                [
                  ("p50_us", Json.Int (Metrics.percentile h 0.50));
                  ("p95_us", Json.Int (Metrics.percentile h 0.95));
                  ("p99_us", Json.Int (Metrics.percentile h 0.99));
                  ("count", Json.Int (Metrics.observations h));
                ] ))
          (latencies t)
      in
      Json.Obj
        [
          ("version", Json.String version);
          ("uptime_s", Json.Float (uptime_s t));
          ("jobs", Json.Int t.cfg.jobs);
          ("queue_limit", Json.Int t.cfg.queue_limit);
          ("in_flight", Json.Int t.in_flight);
          ("queue_depth", Json.Int (queue_depth t));
          ("served", Json.Int t.served);
          ( "requests",
            Json.List
              (List.map
                 (fun (k, o, n) ->
                   Json.Obj
                     [
                       ("kind", Json.String k);
                       ("outcome", Json.String o);
                       ("count", Json.Int n);
                     ])
                 (sorted_requests t)) );
          ( "cache",
            Json.Obj
              [
                ( "hits",
                  Json.Int (Metrics.counter_value t.service "cache/hits") );
                ( "misses",
                  Json.Int (Metrics.counter_value t.service "cache/misses") );
              ] );
          ("latency", Json.Obj (List.sort compare latency));
        ])

(* ---- socket plumbing ------------------------------------------------ *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(* A connection's line reader. [buf] holds the bytes read but not yet
   returned: [buf[start..]] is the line in progress plus anything already
   read past it, and [buf[start..scanned)] is known to hold no newline, so
   each byte is scanned once and a long line costs linear time — the
   buffer grows by doubling and the line is copied out once. One 4 KiB
   read chunk is reused for the life of the connection. *)
type line_reader = {
  fd : Unix.file_descr;
  max_line : int;
  chunk : Bytes.t;
  buf : Buffer.t;
  mutable start : int;
  mutable scanned : int;
}

let line_reader fd ~max_line =
  { fd; max_line; chunk = Bytes.create 4096; buf = Buffer.create 4096;
    start = 0; scanned = 0 }

(* first newline in [buf[from..]], or -1 *)
let rec newline_from buf from =
  if from >= Buffer.length buf then -1
  else if Buffer.nth buf from = '\n' then from
  else newline_from buf (from + 1)

(* Reads one newline-terminated line. A line longer than [max_line] is
   [`Oversized] wherever its newline falls — in the read that completes it
   or one still to come. A clean EOF at a line boundary is [`Eof]; an EOF
   mid-line drops the partial line (the client vanished). *)
let rec read_line r =
  let buf = r.buf in
  match newline_from buf r.scanned with
  | i when i >= 0 && i - r.start > r.max_line -> `Oversized
  | i when i >= 0 ->
      let stop =
        if i > r.start && Buffer.nth buf (i - 1) = '\r' then i - 1 else i
      in
      let line = Buffer.sub buf r.start (stop - r.start) in
      r.start <- i + 1;
      r.scanned <- i + 1;
      `Line line
  | _ ->
      if Buffer.length buf - r.start > r.max_line then `Oversized
      else begin
        (* drop the returned lines before growing the buffer: what is kept
           is the partial line, copied at most once per returned line *)
        if r.start > 0 then begin
          let rest = Buffer.sub buf r.start (Buffer.length buf - r.start) in
          Buffer.clear buf;
          Buffer.add_string buf rest;
          r.start <- 0
        end;
        r.scanned <- Buffer.length buf;
        let n =
          try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk)
          with Unix.Unix_error _ -> 0
        in
        if n = 0 then `Eof
        else begin
          Buffer.add_subbytes buf r.chunk 0 n;
          read_line r
        end
      end

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

let handle_http t fd line =
  let path =
    match String.split_on_char ' ' line with _ :: p :: _ -> p | _ -> "/"
  in
  let resp =
    match path with
    | "/metrics" ->
        http_response ~status:"200 OK" ~content_type:openmetrics_content_type
          (metrics_exposition t)
    | "/healthz" ->
        http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
    | "/stats" ->
        http_response ~status:"200 OK" ~content_type:"application/json"
          (Json.to_string (stats_json t) ^ "\n")
    | _ ->
        http_response ~status:"404 Not Found" ~content_type:"text/plain"
          "not found\n"
  in
  write_all fd resp

(* ---- request dispatch ----------------------------------------------- *)

let signal_stop t =
  let fire =
    locked t (fun () ->
        if t.stopping then false else (t.stopping <- true; true))
  in
  if fire then
    (* wake the accept loop portably: connect to ourselves *)
    try
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string t.cfg.host, t.port)))
    with Unix.Unix_error _ -> ()

let persist_dump t ~rid dump =
  match t.cfg.dump_dir with
  | None -> None
  | Some dir -> (
      try
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path = Filename.concat dir (Printf.sprintf "req-%06d-dump.json" rid) in
        let oc = open_out_bin path in
        output_string oc dump;
        close_out oc;
        Some path
      with _ -> None)

(* Runs [req] on a pool worker and returns [Some (queue_wait_ns, exec)]
   — or [None] when load must be shed. *)
let dispatch t req =
  let admitted =
    locked t (fun () ->
        let ok = t.admitted < Pool.domains t.pool + t.cfg.queue_limit in
        if ok then t.admitted <- t.admitted + 1;
        ok)
  in
  if not admitted then None
  else begin
    let cell = ivar () in
    let t_submit = Obs.now_ns () in
    Pool.submit t.pool (fun () ->
        let t_start = Obs.now_ns () in
        let x = exec_request req in
        (* release the slot before the reply can reach the client *)
        locked t (fun () -> t.admitted <- t.admitted - 1);
        ivar_fill cell (t_start - t_submit, x));
    Some (ivar_wait cell)
  end

let handle_line t fd line =
  let t_recv = Obs.now_ns () in
  let rid = fresh_req t in
  (* parse once: the request, the [id] echo and a rejected reply's [kind]
     all read the same value *)
  let json = Json.of_string line in
  let field name =
    match json with Ok j -> Json.member name j | Error _ -> None
  in
  let id_echo = field "id" in
  let send ~kind ~outcome ?(fields = []) ?(spans = []) () =
    let reply = P.reply ~req:rid ?id:id_echo ~kind ~outcome ~fields ~spans () in
    (* book-keep before the write: once the client holds the reply, the
       service counters must already account for it *)
    record t ~kind ~outcome ~latency_ns:(Obs.now_ns () - t_recv) None;
    write_all fd (Json.to_string reply ^ "\n")
  in
  let request =
    match json with
    | Error e -> Error (Printf.sprintf "malformed JSON: %s" e)
    | Ok j -> P.parse j
  in
  match request with
  | Error e ->
      let kind =
        Option.value ~default:"unknown" (Option.bind (field "kind") Json.to_str)
      in
      send ~kind ~outcome:P.Rejected ~fields:[ ("error", Json.String e) ] ();
      true
  | Ok P.Ping ->
      send ~kind:"ping" ~outcome:P.Ok_
        ~fields:[ ("version", Json.String version) ]
        ();
      true
  | Ok P.Stats ->
      send ~kind:"stats" ~outcome:P.Ok_ ~fields:[ ("stats", stats_json t) ] ();
      true
  | Ok P.Shutdown ->
      send ~kind:"shutdown" ~outcome:P.Ok_ ();
      signal_stop t;
      false
  | Ok req -> (
      let kind = P.kind_name req in
      let draining = locked t (fun () -> t.stopping) in
      if draining then begin
        send ~kind ~outcome:P.Draining
          ~fields:[ ("error", Json.String "service is shutting down") ]
          ();
        true
      end
      else begin
        locked t (fun () -> t.in_flight <- t.in_flight + 1);
        let finish () =
          locked t (fun () ->
              t.in_flight <- t.in_flight - 1;
              Condition.broadcast t.drained)
        in
        match dispatch t req with
        | None ->
            finish ();
            send ~kind ~outcome:P.Overloaded
              ~fields:
                [
                  ( "error",
                    Json.String
                      (Printf.sprintf "queue full (limit %d)" t.cfg.queue_limit)
                  );
                ]
              ();
            true
        | Some (queue_wait_ns, x) ->
            let dump_fields =
              match x.x_dump with
              | None -> []
              | Some dump -> (
                  ("dump", Json.String dump)
                  ::
                  (match persist_dump t ~rid dump with
                  | Some path -> [ ("dump_file", Json.String path) ]
                  | None -> []))
            in
            let fields =
              x.x_fields @ dump_fields
              @ [
                  ("cache_hits", Json.Int x.x_hits);
                  ("cache_misses", Json.Int x.x_misses);
                ]
            in
            let reply =
              P.encode_reply ~req:rid ?id:id_echo ~kind ~outcome:x.x_outcome
                ~fields (fun reply_ns ->
                  [
                    P.span "request"
                      (Obs.now_ns () - t_recv)
                      ~children:
                        [
                          P.span "queue_wait" queue_wait_ns;
                          P.span "elaborate" x.x_elab_ns;
                          P.span "simulate" x.x_sim_ns;
                          P.span "reply" reply_ns;
                        ];
                  ])
            in
            record t ~kind ~outcome:x.x_outcome
              ~latency_ns:(Obs.now_ns () - t_recv)
              (Some x);
            (try write_all fd (reply ^ "\n") with Unix.Unix_error _ -> ());
            finish ();
            true
      end)

let handle_conn t fd =
  let reader = line_reader fd ~max_line:t.cfg.max_line in
  let rec loop () =
    match read_line reader with
    | `Eof -> ()
    | `Oversized ->
        let reply =
          P.reply ~req:0 ~kind:"unknown" ~outcome:P.Rejected
            ~fields:
              [
                ( "error",
                  Json.String
                    (Printf.sprintf "request line exceeds %d bytes"
                       t.cfg.max_line) );
              ]
            ()
        in
        (try write_all fd (Json.to_string reply ^ "\n")
         with Unix.Unix_error _ -> ());
        record t ~kind:"unknown" ~outcome:P.Rejected ~latency_ns:0 None
    | `Line line ->
        if line = "" then loop ()
        else if String.length line >= 4 && String.sub line 0 4 = "GET " then
          (* plain HTTP GET on the same port; respond and close *)
          try handle_http t fd line with Unix.Unix_error _ -> ()
        else begin
          let continue = try handle_line t fd line with Unix.Unix_error _ -> false in
          if continue then loop ()
        end
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* ---- lifecycle ------------------------------------------------------ *)

let create ?(config = default_config) () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let pool = Pool.create ~domains:(max 1 config.jobs) () in
  {
    cfg = config;
    fd;
    port;
    pool;
    lock = Mutex.create ();
    drained = Condition.create ();
    stopping = false;
    in_flight = 0;
    admitted = 0;
    next_req = 0;
    served = 0;
    started = Obs.now_ns ();
    service = Metrics.create ();
    sim = Metrics.create ();
    requests = Hashtbl.create 16;
  }

let port t = t.port
let served t = locked t (fun () -> t.served)
let stop t = signal_stop t

let serve t =
  let rec accept_loop () =
    let stop_now = locked t (fun () -> t.stopping) in
    if not stop_now then begin
      match Unix.accept t.fd with
      | exception Unix.Unix_error _ ->
          if not (locked t (fun () -> t.stopping)) then accept_loop ()
      | conn, _ ->
          if locked t (fun () -> t.stopping) then (
            (* the wake-up self-connection from [signal_stop] *)
            try Unix.close conn with Unix.Unix_error _ -> ())
          else begin
            ignore (Thread.create (handle_conn t) conn);
            accept_loop ()
          end
    end
  in
  accept_loop ();
  (* drain: every admitted request gets its reply before we return *)
  Mutex.lock t.lock;
  while t.in_flight > 0 do
    Condition.wait t.drained t.lock
  done;
  Mutex.unlock t.lock;
  Pool.shutdown t.pool;
  try Unix.close t.fd with Unix.Unix_error _ -> ()
