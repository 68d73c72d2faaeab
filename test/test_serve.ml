(* The simulation service: wire protocol, backpressure, observability and
   the daemon-vs-CLI determinism contract.

   Server instances listen on ephemeral loopback ports with [serve]
   running in a systhread. The daemon executes every request on its own
   pool of worker domains ([jobs = 1] is a pool of one), so a direct
   (in-process) run on the test's domain shares no domain-local state
   with it. Tests still compute the direct result before the server is
   involved, so the two never compete for the CPU. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let is_suffix ~affix s =
  let n = String.length affix and m = String.length s in
  m >= n && String.sub s (m - n) n = affix

(* ---- helpers -------------------------------------------------------- *)

let with_server config f =
  let srv = Serve.create ~config () in
  let th = Thread.create Serve.serve srv in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop srv;
      Thread.join th)
    (fun () -> f srv (Serve.port srv))

let with_conn port f =
  let c = Serve_client.connect ~port () in
  Fun.protect ~finally:(fun () -> Serve_client.close c) (fun () -> f c)

let req c line =
  match Serve_client.request_line c line with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "request failed: %s" e

let str_of j k =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "reply missing string field %S in %s" k (Json.to_string j)

let int_of j k =
  match Option.bind (Json.member k j) Json.to_int with
  | Some i -> i
  | None -> Alcotest.failf "reply missing int field %S" k

let ok_of j =
  match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

let rec span_names j acc =
  match j with
  | Json.Obj fields ->
      let acc =
        match List.assoc_opt "name" fields with
        | Some (Json.String n) -> n :: acc
        | _ -> acc
      in
      (match List.assoc_opt "children" fields with
      | Some (Json.List cs) -> List.fold_left (fun a c -> span_names c a) acc cs
      | _ -> acc)
  | _ -> acc

let reply_span_names j =
  match Json.member "spans" j with
  | Some (Json.List spans) ->
      List.sort compare (List.fold_left (fun a s -> span_names s a) [] spans)
  | _ -> []

let fuzz_line ?(cache = true) ~seed ~count () =
  Printf.sprintf
    "{\"kind\":\"fuzz\",\"seed\":%d,\"count\":%d,\"cache\":%s}" seed count
    (if cache then "true" else "false")

let direct_digest ~seed ~count =
  let r = Diff.run { Diff.default_config with seed; count } in
  Printf.sprintf "0x%016Lx" r.Diff.r_digest

(* ---- protocol + exposition units ------------------------------------ *)

let protocol_tests =
  [
    t "parse: malformed and hostile requests are rejected with reasons"
      (fun () ->
        let err line =
          match Serve_protocol.parse_line line with
          | Error e -> e
          | Ok _ -> Alcotest.failf "accepted %S" line
        in
        check_bool "malformed JSON" true
          (String.length (err "{nope") > 0);
        check_bool "non-object" true (err "[1,2]" <> "");
        check_bool "missing kind" true (err "{}" <> "");
        check_bool "unknown kind named" true
          (let e = err "{\"kind\":\"frobnicate\"}" in
           is_infix ~affix:"frobnicate" e
           || String.length e > 0);
        check_bool "fuzz without seed" true
          (err "{\"kind\":\"fuzz\"}" <> "");
        check_bool "fuzz count cap" true
          (err "{\"kind\":\"fuzz\",\"seed\":1,\"count\":999999}" <> "");
        check_bool "unknown bus" true
          (err "{\"kind\":\"fuzz\",\"seed\":1,\"bus\":\"nope\"}" <> "");
        check_bool "bad ratio" true
          (err "{\"kind\":\"fuzz\",\"seed\":1,\"ratio\":\"x\"}" <> ""));
    t "parse: a full fuzz request round-trips every field" (fun () ->
        (* [cache_size] is no longer a field; an older client that still
           sends it parses as before *)
        match
          Serve_protocol.parse_line
            "{\"kind\":\"fuzz\",\"seed\":9,\"count\":3,\"bus\":\"axi\",\
             \"sched\":\"both\",\"ratio\":\"3:1\",\"depth\":4,\
             \"cache\":false,\"cache_size\":7}"
        with
        | Ok (Serve_protocol.Fuzz f) ->
            check_int "seed" 9 f.seed;
            check_int "count" 3 f.count;
            Alcotest.(check (option string)) "bus" (Some "axi") f.bus;
            check_int "scheds" 2 (List.length f.scheds);
            check_bool "ratio" true (f.ratio = Some (3, 1));
            check_bool "depth" true (f.depth = Some 4);
            check_bool "cache off" false f.cache
        | Ok _ -> Alcotest.fail "parsed as a different kind"
        | Error e -> Alcotest.failf "did not parse: %s" e);
    t "reply: one encode gives the bytes of the spanned envelope" (fun () ->
        (* the reply span prices the one encode; the bytes must be those
           of the whole envelope encoded with the spans it yields *)
        let fields =
          [ ("digest", Json.String "0x1"); ("dump", Json.String "a\"b\n") ]
        in
        let spans =
          [ Serve_protocol.span "request" 7
              ~children:[ Serve_protocol.span "reply" 5 ] ]
        in
        List.iter
          (fun (id, spans) ->
            let priced = ref (-1) in
            let got =
              Serve_protocol.encode_reply ~req:3 ?id ~kind:"fuzz"
                ~outcome:Serve_protocol.Ok_ ~fields (fun ns ->
                  priced := ns;
                  spans)
            in
            check_string "encode_reply = to_string reply"
              (Json.to_string
                 (Serve_protocol.reply ~req:3 ?id ~kind:"fuzz"
                    ~outcome:Serve_protocol.Ok_ ~fields ~spans ()))
              got;
            check_bool "spans_of is handed the encode time" true (!priced >= 0))
          [ (None, spans); (Some (Json.Int 9), spans); (None, []) ]);
    t "openmetrics: hostile label values escape per the spec" (fun () ->
        check_string "escape" "a\\\"b\\\\c\\nd"
          (Openmetrics.escape_label_value "a\"b\\c\nd");
        check_string "sanitize" "splice_serve_latency_us"
          (Openmetrics.sanitize "serve/latency us");
        (* golden: a counter family whose label value carries a quote, a
           backslash and a newline must still be one well-formed line *)
        check_string "family golden"
          ("# TYPE splice_serve_requests_by counter\n"
          ^ "splice_serve_requests_by_total{kind=\"a\\\"b\\\\c\\nd\",\
             outcome=\"ok\"} 3\n")
          (Openmetrics.family ~name:"serve_requests_by" ~typ:`Counter
             [
               ( [ ("kind", "a\"b\\c\nd"); ("outcome", "ok") ],
                 Openmetrics.Int 3 );
             ]);
        check_string "gauge golden"
          "# TYPE splice_build_info gauge\nsplice_build_info{version=\"1.0.0\"} 1\n"
          (Openmetrics.family ~name:"build_info" ~typ:`Gauge
             [ ([ ("version", "1.0.0") ], Openmetrics.Int 1) ]));
    t "eval: digest is a stable fold of the measurement rows" (fun () ->
        let row impl cycles =
          {
            Cycles.impl;
            per_scenario = [ (1, cycles); (2, cycles + 1) ];
            total = (2 * cycles) + 1;
          }
        in
        let a = [ row Interpolator.Splice_plb_simple 10 ] in
        let b = [ row Interpolator.Splice_plb_simple 11 ] in
        check_bool "same rows, same digest" true
          (Cycles.digest a = Cycles.digest a);
        check_bool "cycle change moves the digest" true
          (Cycles.digest a <> Cycles.digest b);
        check_bool "row order matters" true
          (Cycles.digest (a @ b) <> Cycles.digest (b @ a)));
  ]

(* ---- daemon behavior ------------------------------------------------- *)

let server_tests =
  [
    t "serve: protocol errors are per-line and the daemon survives them"
      (fun () ->
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r = req c "{\"kind\":\"ping\",\"id\":{\"tag\":7}}" in
                check_bool "ping ok" true (ok_of r);
                check_string "version echoed" Serve.version (str_of r "version");
                check_bool "id echoed verbatim" true
                  (Json.member "id" r = Some (Json.Obj [ ("tag", Json.Int 7) ]));
                let r = req c "{malformed" in
                check_bool "malformed not ok" false (ok_of r);
                check_string "malformed outcome" "rejected" (str_of r "outcome");
                check_bool "malformed reason" true
                  (String.starts_with ~prefix:"malformed JSON: "
                     (str_of r "error"));
                check_string "malformed kind" "unknown" (str_of r "kind");
                let r = req c "{\"kind\":\"frobnicate\"}" in
                check_string "unknown kind rejected" "rejected"
                  (str_of r "outcome");
                check_string "unknown kind echoed" "frobnicate"
                  (str_of r "kind");
                let r = req c "{\"kind\":\"sleep\",\"ms\":-1}" in
                check_string "bad field rejected" "rejected"
                  (str_of r "outcome");
                (* a rejected request still echoes its id and its kind *)
                let r = req c "{\"kind\":\"sleep\",\"ms\":-1,\"id\":9}" in
                check_string "rejected with id" "rejected" (str_of r "outcome");
                check_int "rejected id echoed" 9 (int_of r "id");
                check_string "rejected kind echoed" "sleep" (str_of r "kind");
                (* valid JSON that is not an object has no kind to echo *)
                let r = req c "[1]" in
                check_string "non-object rejected" "rejected"
                  (str_of r "outcome");
                check_string "non-object kind" "unknown" (str_of r "kind");
                check_bool "non-object has no id" true
                  (Json.member "id" r = None);
                (* request serials keep climbing on one connection *)
                let a = int_of (req c "{\"kind\":\"ping\"}") "req" in
                let b = int_of (req c "{\"kind\":\"ping\"}") "req" in
                check_bool "serials increase" true (b > a));
            (* a client that vanishes mid-request must not wedge anything *)
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            let partial = "{\"kind\":\"pi" in
            ignore (Unix.write_substring fd partial 0 (String.length partial));
            Unix.close fd;
            with_conn port (fun c ->
                check_bool "daemon survives a disconnect" true
                  (ok_of (req c "{\"kind\":\"ping\"}")))));
    t "serve: oversized request lines are rejected" (fun () ->
        with_server { Serve.default_config with max_line = 128 } (fun _srv port ->
            with_conn port (fun c ->
                (* a valid request, padded past the bound and arriving
                   with its newline in one read *)
                let r =
                  req c
                    ("{\"kind\":\"ping\",\"pad\":\"" ^ String.make 300 'x'
                   ^ "\"}")
                in
                check_string "oversized outcome" "rejected" (str_of r "outcome");
                check_string "oversized reason" "request line exceeds 128 bytes"
                  (str_of r "error"))));
    t "serve: a near-max_line line reads in linear allocation" (fun () ->
        (* the line reader once re-concatenated its whole accumulator on
           every 4 KiB read: ~128 MiB of copying for a 1 MiB line. Counted
           in allocated bytes, not wall time, so the bound is exact *)
        let max_line = Serve.default_config.Serve.max_line in
        let long = String.make (max_line - 3) 'x' ^ "\r" in
        let path = Filename.temp_file "splice" ".lines" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (long ^ "\nnext\n"));
            let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let r = Serve.line_reader fd ~max_line in
                let before = Gc.allocated_bytes () in
                let first = Serve.read_line r in
                let allocated = Gc.allocated_bytes () -. before in
                check_bool "long line read whole, CR dropped" true
                  (first = `Line (String.sub long 0 (max_line - 3)));
                check_bool
                  (Printf.sprintf "allocated %.0f bytes for a %d-byte line"
                     allocated (String.length long))
                  true
                  (allocated <= 8. *. float_of_int (String.length long));
                check_bool "next line" true (Serve.read_line r = `Line "next");
                check_bool "then EOF" true (Serve.read_line r = `Eof))));
    t "serve: spec requests validate, reject and report" (fun () ->
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r =
                  req c
                    "{\"kind\":\"spec\",\"source\":\"%device_name d\\n\
                     %bus_type plb\\n%bus_width 32\\n%base_address \
                     0x80000000\\nint add2(int x, int y);\"}"
                in
                check_bool "valid spec ok" true (ok_of r);
                check_string "bus reported" "plb" (str_of r "bus");
                check_bool "funcs listed" true
                  (Json.member "funcs" r = Some (Json.List [ Json.String "add2" ]));
                let r = req c "{\"kind\":\"spec\",\"source\":\"int f(;\"}" in
                check_string "invalid spec rejected" "rejected"
                  (str_of r "outcome"))));
    t "serve: fuzz digests match the direct executor (jobs 1)" (fun () ->
        let expected = direct_digest ~seed:11 ~count:2 in
        with_server Serve.default_config (fun _srv port ->
            with_conn port (fun c ->
                let r = req c (fuzz_line ~seed:11 ~count:2 ()) in
                check_bool "fuzz ok" true (ok_of r);
                check_string "digest equals direct run" expected
                  (str_of r "digest");
                check_int "iterations" 2 (int_of r "iterations");
                Alcotest.(check (list string))
                  "span tree phases"
                  [ "elaborate"; "queue_wait"; "reply"; "request"; "simulate" ]
                  (reply_span_names r);
                (* the direct run above already warmed this domain's cache,
                   so the daemon's inline execution may see pure hits *)
                check_bool "cache deltas reported" true
                  (int_of r "cache_hits" + int_of r "cache_misses" > 0))));
    t "serve: concurrent clients agree with the direct executor (jobs 4)"
      (fun () ->
        let expected_a = direct_digest ~seed:21 ~count:2 in
        let expected_b = direct_digest ~seed:22 ~count:2 in
        with_server { Serve.default_config with jobs = 4 } (fun srv port ->
            let results = Array.make 2 None in
            let client i seed =
              Thread.create
                (fun () ->
                  with_conn port (fun c ->
                      let r = req c (fuzz_line ~seed ~count:2 ()) in
                      results.(i) <- Some (ok_of r, str_of r "digest")))
                ()
            in
            let ta = client 0 21 and tb = client 1 22 in
            Thread.join ta;
            Thread.join tb;
            (match results.(0) with
            | Some (ok, d) ->
                check_bool "client A ok" true ok;
                check_string "client A digest" expected_a d
            | None -> Alcotest.fail "client A got no reply");
            (match results.(1) with
            | Some (ok, d) ->
                check_bool "client B ok" true ok;
                check_string "client B digest" expected_b d
            | None -> Alcotest.fail "client B got no reply");
            check_bool "served both" true (Serve.served srv >= 2)));
    t "serve: saturation sheds load with an overloaded reply" (fun () ->
        with_server
          { Serve.default_config with queue_limit = 0 }
          (fun _srv port ->
            let slow_reply = ref None in
            let slow =
              Thread.create
                (fun () ->
                  with_conn port (fun c ->
                      slow_reply := Some (req c "{\"kind\":\"sleep\",\"ms\":600}")))
                ()
            in
            Thread.delay 0.15;
            with_conn port (fun c ->
                let r = req c (fuzz_line ~seed:1 ~count:1 ()) in
                check_bool "shed, not buffered" false (ok_of r);
                check_string "overloaded outcome" "overloaded"
                  (str_of r "outcome");
                check_bool "limit named" true
                  (String.length (str_of r "error") > 0));
            Thread.join slow;
            match !slow_reply with
            | Some r ->
                check_bool "in-flight request still completed" true (ok_of r);
                check_int "slept" 600 (int_of r "slept_ms")
            | None -> Alcotest.fail "slow request lost its reply"));
    t "serve: queue limit 0 serves an idle daemon and sheds past jobs (jobs 2)"
      (fun () ->
        with_server
          { Serve.default_config with jobs = 2; queue_limit = 0 }
          (fun _srv port ->
            with_conn port (fun c ->
                let r = req c (fuzz_line ~seed:1 ~count:1 ()) in
                check_string "idle daemon serves" "ok" (str_of r "outcome"));
            let replies = Array.make 2 None in
            let sleepers =
              Array.init 2 (fun i ->
                  Thread.create
                    (fun () ->
                      with_conn port (fun c ->
                          replies.(i) <-
                            Some (req c "{\"kind\":\"sleep\",\"ms\":800}")))
                    ())
            in
            (* wait until both sleepers are in flight, then a little longer:
               a request counts as in flight just before it is admitted *)
            let stats c =
              match Json.member "stats" (req c "{\"kind\":\"stats\"}") with
              | Some s -> s
              | None -> Alcotest.fail "stats reply has no stats"
            in
            with_conn port (fun c ->
                let deadline = Unix.gettimeofday () +. 5. in
                while
                  int_of (stats c) "in_flight" < 2
                  && Unix.gettimeofday () < deadline
                do
                  Thread.delay 0.01
                done;
                Thread.delay 0.1;
                let s = stats c in
                check_int "both sleepers running" 2 (int_of s "in_flight");
                check_int "nothing waits" 0 (int_of s "queue_depth");
                let r = req c (fuzz_line ~seed:1 ~count:1 ()) in
                check_string "third request shed" "overloaded"
                  (str_of r "outcome"));
            Array.iter Thread.join sleepers;
            Array.iteri
              (fun i r ->
                match r with
                | Some r ->
                    check_bool (Printf.sprintf "sleeper %d completed" i) true
                      (ok_of r)
                | None -> Alcotest.failf "sleeper %d lost its reply" i)
              replies));
    t "serve: shutdown drains in-flight requests" (fun () ->
        let srv = Serve.create ~config:Serve.default_config () in
        let port = Serve.port srv in
        let server_th = Thread.create Serve.serve srv in
        let slow_reply = ref None in
        let slow =
          Thread.create
            (fun () ->
              with_conn port (fun c ->
                  slow_reply := Some (req c "{\"kind\":\"sleep\",\"ms\":500}")))
            ()
        in
        Thread.delay 0.15;
        with_conn port (fun c ->
            let r = req c "{\"kind\":\"shutdown\"}" in
            check_bool "shutdown acknowledged" true (ok_of r));
        (* serve returns only after the sleeper got its reply *)
        Thread.join server_th;
        Thread.join slow;
        (match !slow_reply with
        | Some r -> check_bool "drained request completed" true (ok_of r)
        | None -> Alcotest.fail "in-flight request dropped at shutdown");
        check_int "both requests served" 2 (Serve.served srv));
    t "serve: /metrics, /healthz and /stats answer plain HTTP" (fun () ->
        with_server Serve.default_config (fun srv port ->
            with_conn port (fun c ->
                check_bool "ping" true (ok_of (req c "{\"kind\":\"ping\"}"));
                check_bool "fuzz" true
                  (ok_of (req c (fuzz_line ~seed:5 ~count:1 ()))));
            (match Serve_client.http_get ~port "/healthz" with
            | Ok (200, body) -> check_string "healthz" "ok\n" body
            | Ok (st, _) -> Alcotest.failf "healthz status %d" st
            | Error e -> Alcotest.failf "healthz: %s" e);
            (match Serve_client.http_get ~port "/metrics" with
            | Ok (200, body) ->
                let has s = is_infix ~affix:s body in
                check_bool "ends with EOF terminator" true
                  (is_suffix ~affix:"# EOF\n" body);
                check_bool "request counters by kind/outcome" true
                  (has
                     "splice_serve_requests_by_total{kind=\"fuzz\",\
                      outcome=\"ok\"} 1");
                check_bool "latency quantiles" true
                  (has "splice_serve_latency_quantile_us{kind=\"fuzz\",q=\"0.99\"}");
                check_bool "latency histogram" true
                  (has "splice_serve_latency_us_fuzz_bucket{le=\"+Inf\"}");
                check_bool "cache counters" true
                  (has "splice_cache_misses_total");
                check_bool "build info" true
                  (has
                     (Printf.sprintf "splice_build_info{version=\"%s\"} 1"
                        Serve.version));
                check_bool "uptime" true (has "splice_uptime_seconds ");
                check_bool "queue depth gauge" true
                  (has "splice_serve_queue_depth ")
            | Ok (st, _) -> Alcotest.failf "metrics status %d" st
            | Error e -> Alcotest.failf "metrics: %s" e);
            (match Serve_client.http_get ~port "/stats" with
            | Ok (200, body) -> (
                match Json.of_string (String.trim body) with
                | Ok j ->
                    check_bool "served count" true (int_of j "served" >= 2);
                    check_bool "has latency table" true
                      (Json.member "latency" j <> None)
                | Error e -> Alcotest.failf "stats not JSON: %s" e)
            | Ok (st, _) -> Alcotest.failf "stats status %d" st
            | Error e -> Alcotest.failf "stats: %s" e);
            (match Serve_client.http_get ~port "/nope" with
            | Ok (404, _) -> ()
            | Ok (st, _) -> Alcotest.failf "expected 404, got %d" st
            | Error e -> Alcotest.failf "404 probe: %s" e);
            check_bool "exposition helper agrees" true
              (is_suffix ~affix:"# EOF\n"
                 (Serve.metrics_exposition srv))));
    t "serve: /metrics and /stats report the same per-kind latency" (fun () ->
        with_server Serve.default_config (fun srv port ->
            with_conn port (fun c ->
                check_bool "ping" true (ok_of (req c "{\"kind\":\"ping\"}"));
                check_bool "ping again" true
                  (ok_of (req c "{\"kind\":\"ping\"}"));
                check_bool "fuzz" true
                  (ok_of (req c (fuzz_line ~seed:5 ~count:1 ())));
                check_bool "malformed line rejected" false
                  (ok_of (req c "not json")));
            let stats =
              match Json.member "latency" (Serve.stats_json srv) with
              | Some (Json.Obj kinds) ->
                  List.map
                    (fun (kind, j) -> (kind, int_of j "count"))
                    kinds
              | _ -> Alcotest.fail "/stats has no latency object"
            in
            Alcotest.(check (list (pair string int)))
              "/stats kinds and counts"
              [ ("fuzz", 1); ("ping", 2); ("unknown", 1) ]
              stats;
            let body = Serve.metrics_exposition srv in
            List.iter
              (fun (kind, n) ->
                check_bool (kind ^ " histogram count") true
                  (is_infix
                     ~affix:
                       (Printf.sprintf "\nsplice_serve_latency_us_%s_count %d\n"
                          kind n)
                     body);
                check_bool (kind ^ " p50 gauge") true
                  (is_infix
                     ~affix:
                       (Printf.sprintf
                          "splice_serve_latency_quantile_us{kind=\"%s\",q=\"0.5\"}"
                          kind)
                     body))
              stats));
    t "serve: a failing fuzz carries its flight-recorder dump" (fun () ->
        let module Buggy = struct
          include Plb

          let caps = { Plb.caps with Bus_caps.name = "buggy" }

          let connect ~cover ~cdc ~monitor kernel spec sis =
            let port = Plb.connect ~cover ~cdc ~monitor kernel spec sis in
            {
              port with
              Bus_port.bus_name = "buggy";
              result =
                (fun () ->
                  List.map
                    (fun w ->
                      Bits.logxor w (Bits.of_int ~width:(Bits.width w) 1))
                    (port.Bus_port.result ()));
            }
        end in
        let dump_dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "splice_serve_test_%d" (Unix.getpid ()))
        in
        Registry.register (module Buggy);
        Fun.protect
          ~finally:(fun () -> Registry.unregister "buggy")
          (fun () ->
            with_server
              { Serve.default_config with dump_dir = Some dump_dir }
              (fun _srv port ->
                with_conn port (fun c ->
                    let r =
                      req c
                        "{\"kind\":\"fuzz\",\"seed\":5,\"count\":10,\
                         \"bus\":\"buggy\"}"
                    in
                    check_bool "failure is not ok" false (ok_of r);
                    check_string "failed outcome" "failed" (str_of r "outcome");
                    check_string "failing bus" "buggy" (str_of r "bus");
                    check_bool "repro command attached" true
                      (is_infix ~affix:"splice fuzz --seed"
                         (str_of r "repro"));
                    let dump = str_of r "dump" in
                    (match Query.of_string dump with
                    | Ok d ->
                        check_bool "dump has events" true (d.Query.d_events <> [])
                    | Error e -> Alcotest.failf "dump does not parse: %s" e);
                    let path = str_of r "dump_file" in
                    check_bool "dump persisted" true (Sys.file_exists path);
                    let ic = open_in_bin path in
                    let n = in_channel_length ic in
                    let persisted = really_input_string ic n in
                    close_in ic;
                    check_string "persisted dump equals attached dump" dump
                      persisted;
                    (* the dump round-trips through a trace request *)
                    let tr =
                      req c
                        (Json.to_string
                           (Json.Obj
                              [
                                ("kind", Json.String "trace");
                                ("dump", Json.String dump);
                              ]))
                    in
                    check_bool "trace summarizes the dump" true (ok_of tr);
                    check_bool "summary non-empty" true
                      (String.length (str_of tr "summary") > 0)))));
  ]

(* ---- HTTP path property ----------------------------------------------
   One daemon, a few hundred [GET <path>] lines with arbitrary printable
   paths: every reply is a 200 or a 404 whose Content-Length is the body's
   byte length, and the daemon still answers a ping afterwards. The QCheck
   seed comes from QCHECK_SEED when set (the test_properties.ml
   contract). *)

let qseed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some n -> n
  | None ->
      Random.self_init ();
      Random.bits ()

let http_max_line = 256

(* printable ASCII, no CR/LF; with "GET " and the CRLF the line stays
   within [http_max_line] *)
let arb_http_path =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size ~gen:(char_range ' ' '~') (int_bound (http_max_line - 8)))

(* send one raw request line, read the whole reply (the daemon closes the
   connection after an HTTP response) *)
let raw_http ~port line =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd line 0 (String.length line));
      let buf = Bytes.create 4096 and b = Buffer.create 4096 in
      let rec go () =
        let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
        if n > 0 then (
          Buffer.add_subbytes b buf 0 n;
          go ())
      in
      go ();
      Buffer.contents b)

(* [Ok ()] when [raw] is a 200/404 with a truthful Content-Length *)
let check_http_reply raw =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length raw then None
      else if String.sub raw i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let status_ok =
    List.exists
      (fun p -> String.starts_with ~prefix:p raw)
      [ "HTTP/1.1 200 "; "HTTP/1.1 404 " ]
  in
  match (find "\r\n\r\n" 0, find "\r\nContent-Length: " 0) with
  | _ when not status_ok -> Error "status is neither 200 nor 404"
  | None, _ -> Error "no end of headers"
  | _, None -> Error "no Content-Length"
  | Some hdr_end, Some cl when cl < hdr_end -> (
      let v = cl + String.length "\r\nContent-Length: " in
      let eol = Option.value (find "\r\n" v) ~default:v in
      let body = String.length raw - (hdr_end + 4) in
      match int_of_string_opt (String.sub raw v (eol - v)) with
      | Some n when n = body -> Ok ()
      | Some n -> Error (Printf.sprintf "Content-Length %d, body %d bytes" n body)
      | None -> Error "unparsable Content-Length")
  | Some _, Some _ -> Error "Content-Length outside the headers"

let http_tests =
  [
    t "serve: GET on any printable path is a 200 or a truthful 404" (fun () ->
        with_server { Serve.default_config with max_line = http_max_line }
          (fun _srv port ->
            QCheck.Test.check_exn
              ~rand:(Random.State.make [| qseed |])
              (QCheck.Test.make ~count:300 ~name:"http path" arb_http_path
                 (fun path ->
                   match check_http_reply (raw_http ~port ("GET " ^ path ^ "\r\n")) with
                   | Ok () -> true
                   | Error e -> QCheck.Test.fail_report e));
            with_conn port (fun c ->
                check_bool "daemon still answers ping" true
                  (ok_of (req c "{\"kind\":\"ping\"}")))));
  ]

let tests = [ ("serve", protocol_tests @ server_tests @ http_tests) ]
