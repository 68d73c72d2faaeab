(* lib/check tests: per-bus protocol monitors (a deliberately violating
   hand-built trace per bus must raise Check_failed, a clean interpolator
   run per bus must not), Specgen determinism/validity/shrinking, and the
   differential executor — including its ability to catch an injected bug. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -------- hand-built violating traces: monitors must catch bugs -------- *)

let fresh_sis () = Sis_if.create ~bus_width:32 ~func_id_width:4 ~instances:3 ()

(* drive the SIS lines directly (no adapter, no stubs): [drive] is a list of
   per-cycle settings applied before each Kernel.cycle *)
let play kernel sis trace =
  List.iter
    (fun settings ->
      List.iter (fun f -> f sis) settings;
      Kernel.cycle kernel)
    trace

let expect_violation bus trace =
  let kernel = Kernel.create () in
  let sis = fresh_sis () in
  Bus_monitor.attach kernel ~bus sis;
  match play kernel sis trace with
  | () -> Alcotest.failf "%s: violating trace raised no Check_failed" bus
  | exception Kernel.Check_failed { check; _ } ->
      Signal.clear_pending ();
      Alcotest.(check string) "check name" (bus ^ "-protocol") check

let io_enable v (s : Sis_if.t) = Signal.set_bool s.Sis_if.io_enable v
let div v (s : Sis_if.t) = Signal.set_bool s.Sis_if.data_in_valid v
let dov v (s : Sis_if.t) = Signal.set_bool s.Sis_if.data_out_valid v
let io_done v (s : Sis_if.t) = Signal.set_bool s.Sis_if.io_done v
let fid v (s : Sis_if.t) = Signal.set_int s.Sis_if.func_id v
let data v (s : Sis_if.t) = Signal.set s.Sis_if.data_in (Bits.of_int ~width:32 v)

let violation_tests =
  [
    t "plb: RdAck with no read in flight is caught" (fun () ->
        (* dataAck-before-addrAck ordering: DATA_OUT_VALID with no request *)
        expect_violation "plb" [ [ dov true ] ]);
    t "plb: WrAck with no write in flight is caught" (fun () ->
        expect_violation "plb" [ [ io_done true ] ]);
    t "opb: Sln_XferAck held two cycles is caught" (fun () ->
        (* single-cycle acknowledge rule: a second back-to-back ack cycle *)
        expect_violation "opb"
          [ [ io_enable true; div true; fid 1; io_done true ]; [] ]);
    t "fcb: register field changed mid-opcode is caught" (fun () ->
        expect_violation "fcb"
          [
            [ io_enable true; div true; fid 2; data 5 ];
            [ io_enable false; fid 3 ];
          ]);
    t "apb: slave wait state on a write is caught" (fun () ->
        (* APB transfers cannot be paused: IO_DONE low in the access cycle *)
        expect_violation "apb" [ [ io_enable true; div true; fid 1 ] ]);
    t "apb: PENABLE held two cycles is caught" (fun () ->
        (* setup->enable phasing: accesses need an idle cycle between them *)
        expect_violation "apb" [ [ io_enable true; fid 1 ]; [] ]);
    t "ahb: HWDATA changed during a wait-stated beat is caught" (fun () ->
        expect_violation "ahb"
          [
            [ io_enable true; div true; fid 1; data 5 ];
            [ io_enable false; data 6 ];
          ]);
    t "avalon: address changed under waitrequest is caught" (fun () ->
        expect_violation "avalon"
          [ [ io_enable true; fid 2 ]; [ io_enable false; fid 3 ] ]);
    t "wishbone: ACK_O with no cycle in progress is caught" (fun () ->
        expect_violation "wishbone" [ [ io_done true ] ]);
    t "generic monitor guards user-registered buses" (fun () ->
        (* a bus name outside the dedicated set falls back to the capability-
           derived generic monitor, which still catches spurious acks *)
        expect_violation "mystery" [ [ io_done true ] ]);
    t "reset sanity: request strobed during reset is caught" (fun () ->
        expect_violation "plb"
          [ [ (fun s -> Signal.set_bool s.Sis_if.rst true); io_enable true ] ]);
  ]

(* -------- clean runs: monitors must stay silent on correct traffic ------ *)

let clean_tests =
  List.map
    (fun bus ->
      t (Printf.sprintf "clean interpolator run on %s passes all monitors" bus)
        (fun () ->
          let host = Interpolator.make_host_on_bus bus in
          Bus_monitor.attach (Host.kernel host) ~bus (Host.sis host);
          let scenario = Interp_scenarios.by_id 2 in
          let result, cycles = Interpolator.run host scenario in
          Alcotest.(check int64)
            "matches software reference"
            (Interpolator.reference (Interp_scenarios.inputs scenario))
            result;
          check_bool "cycles sane" true (cycles > 0);
          check_bool "bus monitor attached" true
            (List.mem (bus ^ "-protocol")
               (Kernel.check_names (Host.kernel host)))))
    (Registry.names ())

(* -------- Specgen: determinism, validity, shrinking -------- *)

let specgen_tests =
  [
    t "same seed, same spec and traffic" (fun () ->
        let g1 = Specgen.spec (Specgen.Rng.make 1234) in
        let g2 = Specgen.spec (Specgen.Rng.make 1234) in
        Alcotest.(check string) "render" (Specgen.render g1) (Specgen.render g2);
        let spec = Result.get_ok (Specgen.validate g1) in
        let t1 = Specgen.traffic (Specgen.Rng.make 99) spec in
        let t2 = Specgen.traffic (Specgen.Rng.make 99) spec in
        check_bool "traffic deterministic" true (t1 = t2));
    t "seeds 0..49 validate on their bus and on every other bus" (fun () ->
        for seed = 0 to 49 do
          let g = Specgen.spec (Specgen.Rng.make seed) in
          List.iter
            (fun bus ->
              match Specgen.validate (Specgen.with_bus g bus) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "seed %d bus %s: %s" seed bus e)
            (Registry.names ())
        done);
    t "shrink candidates are smaller and still validate" (fun () ->
        let g = Specgen.spec (Specgen.Rng.make 7) in
        let size g =
          List.fold_left
            (fun acc (f : Specgen.gfunc) ->
              acc + 1 + f.Specgen.g_instances + List.length f.Specgen.g_params)
            0 g.Specgen.g_funcs
        in
        List.iter
          (fun g' ->
            check_bool "structurally no larger" true (size g' <= size g);
            (* CDC candidates shrink simulation dimensions the rendered
               declaration does not carry *)
            check_bool "renders differently or shrinks a CDC dimension" true
              (Specgen.render g' <> Specgen.render g
              || g'.Specgen.g_ratio <> g.Specgen.g_ratio
              || g'.Specgen.g_depth <> g.Specgen.g_depth);
            check_bool "validates" true
              (Result.is_ok (Specgen.validate g')))
          (Specgen.shrink g));
  ]

(* -------- differential executor -------- *)

(* A PLB whose port flips the low bit of every word it reads back,
   registered as "buggy" for the duration of [f]: every fuzz sweep over it
   fails the golden model. *)
let with_buggy_bus f =
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
              (fun w -> Bits.logxor w (Bits.of_int ~width:(Bits.width w) 1))
              (port.Bus_port.result ()));
      }
  end in
  Registry.register (module Buggy);
  Fun.protect ~finally:(fun () -> Registry.unregister "buggy") f

let diff_tests =
  [
    t "fixed-seed differential sweep is clean on all registered buses" (fun () ->
        let report =
          Diff.run { Diff.default_config with seed = 7; count = 3 }
        in
        (match report.Diff.r_failure with
        | None -> ()
        | Some f ->
            Alcotest.fail
              (Format.asprintf "unexpected failure: %a" Diff.pp_failure f));
        check_int "3 iterations" 3 report.Diff.r_iterations;
        check_bool "calls executed" true (report.Diff.r_calls > 0));
    t "compiled scheduler matches the oracles bit-for-bit at -j 1 and -j 4"
      (fun () ->
        (* every (spec, bus) cell of the fixed corpus runs under event,
           sweep and the compiled op-tape; [exec_bus] raises on any
           per-call cycle-count disagreement and the golden model on any
           data difference, so a clean report IS the bit-for-bit property.
           The digest folds every per-call cycle count under every
           scheduler, and must be identical with and without a pool. *)
        let config =
          {
            Diff.default_config with
            seed = 11;
            count = 4;
            scheds = [ `Event; `Sweep; `Compiled ];
          }
        in
        let seq = Diff.run config in
        (match seq.Diff.r_failure with
        | None -> ()
        | Some f ->
            Alcotest.fail
              (Format.asprintf "compiled scheduler diverged: %a"
                 Diff.pp_failure f));
        check_bool "calls cover all three schedulers" true
          (seq.Diff.r_calls > 0 && seq.Diff.r_calls mod 3 = 0);
        let pool = Option.get (Pool.of_jobs 4) in
        let par =
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () -> Diff.run ~pool config)
        in
        check_bool "parallel run clean" true (par.Diff.r_failure = None);
        check_bool "digests agree at -j 4" true
          (Int64.equal seq.Diff.r_digest par.Diff.r_digest));
    t "every registered bus participates in the matrix" (fun () ->
        let report =
          Diff.run { Diff.default_config with seed = 1; count = 1 }
        in
        Alcotest.(check (list string))
          "matrix = Registry.names ()" (Registry.names ()) report.Diff.r_buses;
        List.iter
          (fun b -> check_bool (b ^ " enumerable") true (List.mem b report.Diff.r_buses))
          [ "plb"; "opb"; "fcb"; "apb"; "ahb"; "wishbone"; "avalon" ]);
    t "iteration_seed 0 is the base seed (repro contract)" (fun () ->
        check_int "identity at 0" 42 (Diff.iteration_seed 42 0);
        check_bool "distinct later" true
          (Diff.iteration_seed 42 1 <> Diff.iteration_seed 42 2));
    t "registry exposes every adapter module" (fun () ->
        check_int "all = names" (List.length (Registry.names ()))
          (List.length (Registry.all ()));
        List.iter
          (fun (module B : Bus.S) ->
            check_bool "find round-trips" true
              (Registry.find (Bus.name (module B)) <> None))
          (Registry.all ()));
    t "a data-corrupting bus is caught and shrunk" (fun () ->
        (* self-test of the whole loop: register a bus whose port flips the
           low bit of every word it reads back, fuzz it, and require a
           golden-model failure with a reproducible counterexample *)
        with_buggy_bus (fun () ->
            let report =
              Diff.run
                { Diff.default_config with seed = 5; count = 20; buses = [ "buggy" ] }
            in
            match report.Diff.r_failure with
            | None -> Alcotest.fail "corrupting bus survived the fuzz loop"
            | Some f ->
                Alcotest.(check string) "failing bus" "buggy" f.Diff.f_bus;
                check_bool "repro command names the seed" true
                  (Diff.repro_command f
                  = Printf.sprintf "splice fuzz --seed %d --count 1 --bus buggy"
                      f.Diff.f_seed);
                (* the shrunk spec still reproduces and is minimal enough to
                   read: a handful of functions at most *)
                check_bool "shrunk spec is small" true
                  (List.length f.Diff.f_spec.Specgen.g_funcs <= 2);
                (* every counterexample ships its flight-recorder dump *)
                match f.Diff.f_dump with
                | None -> Alcotest.fail "failure carried no dump"
                | Some dump -> (
                    match Query.of_string dump with
                    | Error e -> Alcotest.failf "dump does not parse: %s" e
                    | Ok d ->
                        check_bool "dump window is non-empty" true
                          (d.Query.d_events <> []);
                        Alcotest.(check (option string))
                          "dump context is the failure message"
                          (Some f.Diff.f_message) d.Query.d_context;
                        check_bool "signal transitions captured" true
                          (Query.filter ~kinds:[ Recorder.Signal_change ] d
                          <> []))));
    t "failure dumps are byte-identical at -j 1 and -j 4" (fun () ->
        (* the dump is part of the shrunk counterexample, so the PR 4
           determinism contract extends to it: same seed, same bytes,
           whatever the worker count *)
        with_buggy_bus (fun () ->
            let config =
              { Diff.default_config with seed = 5; count = 20; buses = [ "buggy" ] }
            in
            let seq = Diff.run config in
            let pool = Option.get (Pool.of_jobs 4) in
            let par =
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () -> Diff.run ~pool config)
            in
            match (seq.Diff.r_failure, par.Diff.r_failure) with
            | Some fs, Some fp ->
                check_bool "digests agree" true
                  (Int64.equal seq.Diff.r_digest par.Diff.r_digest);
                (match (fs.Diff.f_dump, fp.Diff.f_dump) with
                | Some ds, Some dp ->
                    Alcotest.(check string) "dumps byte-identical" ds dp
                | _ -> Alcotest.fail "a failure carried no dump");
                Alcotest.(check string) "messages agree" fs.Diff.f_message
                  fp.Diff.f_message
            | _ -> Alcotest.fail "corrupting bus survived a sweep"));
    t "failure dumps are pinned" (fun () ->
        (* sweep runs are uninstrumented and the dump comes from a fresh
           instrumented re-run of the shrunk cell: these MD5s are those of
           the dumps taken at the point of failure on instrumented sweep
           hosts, so the re-run must reproduce them byte for byte, with
           the cache off and with coverage sampling on *)
        with_buggy_bus (fun () ->
            let base =
              { Diff.default_config with seed = 5; count = 20; buses = [ "buggy" ] }
            in
            List.iter
              (fun (label, config, md5, bytes) ->
                match (Diff.run config).Diff.r_failure with
                | None -> Alcotest.failf "%s: corrupting bus survived" label
                | Some { Diff.f_dump = None; _ } ->
                    Alcotest.failf "%s: failure carried no dump" label
                | Some { Diff.f_dump = Some dump; _ } ->
                    check_int (label ^ ": dump bytes") bytes (String.length dump);
                    Alcotest.(check string)
                      (label ^ ": dump md5") md5
                      (Digest.to_hex (Digest.string dump)))
              [
                ("seed 5", base, "89bf664c78a17d6b8f765a28fab80316", 4958);
                ( "seed 5, cache off",
                  { base with cache = false },
                  "89bf664c78a17d6b8f765a28fab80316",
                  4958 );
                ( "seed 5, coverage on",
                  { base with cover = true },
                  "89bf664c78a17d6b8f765a28fab80316",
                  4958 );
                ( "seed 7, sweep",
                  { base with seed = 7; count = 10; scheds = [ `Sweep ] },
                  "7ea2531c8cbb7f556ea8e23ec385b5b8",
                  7509 );
                ( "seed 11, compiled + event",
                  { base with seed = 11; count = 10; scheds = [ `Compiled; `Event ] },
                  "e67429855d24e8b1de9eccc0fb38e48e",
                  3792 );
              ]));
    t "uninstrumented sweeps leave Obs.none empty" (fun () ->
        (* fuzz and Fig 9.2 hosts are built on the shared disabled context
           from every pool domain at once: nothing may register on it *)
        let pool = Option.get (Pool.of_jobs 4) in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            ignore (Diff.run ~pool { Diff.default_config with seed = 3; count = 4 }));
        ignore (Cycles.measure ());
        let m = Obs.metrics Obs.none in
        check_int "no counters" 0 (List.length (Metrics.counters m));
        check_int "no histograms" 0 (List.length (Metrics.histograms m)));
  ]

let tests =
  [
    ("check.monitor-violations", violation_tests);
    ("check.monitor-clean", clean_tests);
    ("check.specgen", specgen_tests);
    ("check.diff", diff_tests);
  ]
