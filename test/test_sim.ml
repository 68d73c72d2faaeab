(* Simulation kernel semantics: two-phase evaluation, register commit,
   fixpoint detection, checks, waveform capture. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let signal_tests =
  [
    t "initial value is zero" (fun () ->
        let s = Signal.create ~name:"s" 8 in
        check_bool "zero" true (Bits.is_zero (Signal.get s)));
    t "set is immediate" (fun () ->
        let s = Signal.create 8 in
        Signal.set_int s 42;
        check_int "visible" 42 (Signal.get_int s));
    t "set width checked" (fun () ->
        let s = Signal.create 8 in
        Alcotest.check_raises "width"
          (Bits.Width_mismatch (Printf.sprintf "Signal.set %s: 4 vs 8" (Signal.name s)))
          (fun () -> Signal.set s (Bits.zero 4)));
    t "set_next is deferred until commit" (fun () ->
        let s = Signal.create 8 in
        Signal.set_next_int s 7;
        check_int "not yet" 0 (Signal.get_int s);
        Signal.commit_pending ();
        check_int "now" 7 (Signal.get_int s));
    t "last set_next wins" (fun () ->
        let s = Signal.create 8 in
        Signal.set_next_int s 1;
        Signal.set_next_int s 2;
        Signal.commit_pending ();
        check_int "last" 2 (Signal.get_int s));
    t "change_count increments only on real change" (fun () ->
        let s = Signal.create 8 in
        Signal.set_int s 5;
        let c = Signal.change_count () in
        Signal.set_int s 5;
        check_int "no change" c (Signal.change_count ());
        Signal.set_int s 6;
        check_int "changed" (c + 1) (Signal.change_count ()));
    t "clear_pending drops writes" (fun () ->
        let s = Signal.create 8 in
        Signal.set_next_int s 9;
        Signal.clear_pending ();
        Signal.commit_pending ();
        check_int "dropped" 0 (Signal.get_int s));
    t "commit_pending never replays writes after a mid-commit raise" (fun () ->
        (* regression: an exception raised while applying the queue used to
           leave [s_pending] populated, so the next cycle's commit silently
           replayed the stale writes over anything set since *)
        let a = Signal.create 8 and b = Signal.create 8 in
        let armed = ref true in
        Signal.on_change b (fun () ->
            if !armed then begin
              armed := false;
              failwith "listener boom"
            end);
        Signal.set_next_int b 1;
        Signal.set_next_int a 1 (* applied first: the queue is newest-first *);
        (match Signal.commit_pending () with
        | () -> Alcotest.fail "expected the listener to raise"
        | exception Failure _ -> ());
        check_int "write before the raise applied" 1 (Signal.get_int a);
        (* the aborted commit must have emptied the queue *)
        Signal.set_int a 5;
        Signal.commit_pending ();
        check_int "no stale replay" 5 (Signal.get_int a);
        check_int "interrupted write stands" 1 (Signal.get_int b));
  ]

let kernel_tests =
  [
    t "seq sees pre-edge values (register semantics)" (fun () ->
        (* two registers swapping values every cycle *)
        let a = Signal.create ~name:"a" 8 and b = Signal.create ~name:"b" 8 in
        Signal.set_int a 1;
        Signal.set_int b 2;
        let k = Kernel.create () in
        Kernel.add k
          (Component.make
             ~seq:(fun () -> Signal.set_next a (Signal.get b))
             "a<=b");
        Kernel.add k
          (Component.make
             ~seq:(fun () -> Signal.set_next b (Signal.get a))
             "b<=a");
        Kernel.cycle k;
        check_int "a" 2 (Signal.get_int a);
        check_int "b" 1 (Signal.get_int b);
        Kernel.cycle k;
        check_int "a back" 1 (Signal.get_int a));
    t "comb fixpoint propagates through a chain" (fun () ->
        (* c2 depends on c1 depends on src; registration order is reversed so
           at least two passes are needed *)
        let src = Signal.create 8 and w1 = Signal.create 8 and w2 = Signal.create 8 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make
             ~comb:([ w1 ], fun () -> Signal.set w2 (Signal.get w1))
             "w2");
        Kernel.add k
          (Component.make
             ~comb:([ src ], fun () -> Signal.set w1 (Signal.get src))
             "w1");
        Signal.set_int src 9;
        Kernel.cycle k;
        check_int "propagated" 9 (Signal.get_int w2));
    t "cycles counts" (fun () ->
        let k = Kernel.create () in
        Kernel.run k 5;
        check_int "five" 5 (Kernel.cycles k));
    t "run_until returns cycle count" (fun () ->
        let n = ref 0 in
        let k = Kernel.create () in
        Kernel.add k (Component.make ~seq:(fun () -> incr n) "counter");
        let taken = Kernel.run_until k (fun () -> !n >= 3) in
        check_int "taken" 3 taken);
    t "run_until times out" (fun () ->
        let k = Kernel.create () in
        match Kernel.run_until ~max:10 ~what:"never" k (fun () -> false) with
        | _ -> Alcotest.fail "expected timeout"
        | exception Kernel.Timeout { waiting_for; _ } ->
            Alcotest.(check string) "what" "never" waiting_for);
    t "checks run and can fail" (fun () ->
        let k = Kernel.create () in
        Kernel.add_check k "always-fails" (fun cycle ->
            Kernel.check_fail ~cycle ~check:"always-fails" "boom");
        match Kernel.cycle k with
        | () -> Alcotest.fail "expected check failure"
        | exception Kernel.Check_failed { check; message; _ } ->
            Alcotest.(check string) "check" "always-fails" check;
            Alcotest.(check string) "msg" "boom" message);
    t "an observer check sees the settled pre-edge view" (fun () ->
        (* a register [q] whose seq advances a model counter, and a comb
           [d = q + 1]. The observer, registered after the register, must
           see each tick's settled [d], and [q] and the counter as they
           were before the edge: run in the seq loop it would see the
           counter advanced, run after the commit it would see [q]
           advanced *)
        List.iter
          (fun sched ->
            let q = Signal.create ~name:"q" 8 and d = Signal.create ~name:"d" 8 in
            let count = ref 0 in
            let k = Kernel.create ~sched () in
            Kernel.add k
              (Component.make
                 ~comb:([ q ], fun () -> Signal.set_int d (Signal.get_int q + 1))
                 "inc");
            Kernel.add k
              (Component.make
                 ~seq:(fun () ->
                   incr count;
                   Signal.set_next_int q !count)
                 "reg");
            let seen = ref [] in
            Kernel.add_check k "observer" (fun tick ->
                seen :=
                  Printf.sprintf "%d: q=%d d=%d count=%d" tick (Signal.get_int q)
                    (Signal.get_int d) !count
                  :: !seen);
            Kernel.run k 3;
            Alcotest.(check (list string))
              "observed"
              [ "0: q=0 d=1 count=0"; "1: q=1 d=2 count=1"; "2: q=2 d=3 count=2" ]
              (List.rev !seen))
          [ `Event; `Sweep; `Compiled ]);
    t "a component reused by a re-created kernel re-registers" (fun () ->
        (* regression: the sticky [registered] flag made a second kernel
           skip listener registration for a reused component — source
           changes then marked the dead kernel's dirty counter and the new
           kernel never re-evaluated the component *)
        let src = Signal.create 8 and out = Signal.create 8 in
        let c =
          Component.make
            ~comb:([ src ], fun () -> Signal.set out (Signal.get src))
            "copy"
        in
        let k1 = Kernel.create () in
        Kernel.add k1 c;
        Signal.set_int src 3;
        Kernel.cycle k1;
        check_int "first kernel propagates" 3 (Signal.get_int out);
        let k2 = Kernel.create () in
        Kernel.add k2 c;
        Kernel.cycle k2;
        Signal.set_int src 9;
        Kernel.cycle k2;
        check_int "re-created kernel still propagates" 9 (Signal.get_int out));
  ]

let scheduler_tests =
  (* the event-driven kernel (default since the dirty-set scheduler landed)
     must be observationally identical to the legacy sweep; only the number
     of comb evaluations may differ *)
  let chain sched =
    (* c2 depends on c1 depends on src, registered in reverse order so
       in-pass propagation is exercised *)
    let src = Signal.create 8 and w1 = Signal.create 8 and w2 = Signal.create 8 in
    let k = Kernel.create ~sched () in
    Kernel.add k
      (Component.make
         ~comb:([ w1 ], fun () -> Signal.set w2 (Signal.get w1))
         "w2");
    Kernel.add k
      (Component.make
         ~comb:([ src ], fun () -> Signal.set w1 (Signal.get src))
         "w1");
    (src, w2, k)
  in
  [
    t "declared reads propagate through a chain" (fun () ->
        let src, w2, k = chain `Event in
        Signal.set_int src 9;
        Kernel.cycle k;
        check_int "propagated" 9 (Signal.get_int w2);
        Signal.set_int src 4;
        Kernel.cycle k;
        check_int "re-propagated" 4 (Signal.get_int w2));
    t "compiled tape propagates through a chain" (fun () ->
        (* the second set happens between cycles, with no settle running —
           the tape's snapshot scan must pick it up without any listener *)
        let src, w2, k = chain `Compiled in
        Signal.set_int src 9;
        Kernel.cycle k;
        check_int "propagated" 9 (Signal.get_int w2);
        Signal.set_int src 4;
        Kernel.cycle k;
        check_int "re-propagated" 4 (Signal.get_int w2));
    t "quiescent components are not re-evaluated" (fun () ->
        let run sched =
          let src, w2, k = chain sched in
          Signal.set_int src 9;
          Kernel.run k 10;
          (Signal.get_int w2, (Kernel.stats k).Kernel.comb_evals)
        in
        let v_event, evals_event = run `Event in
        let v_sweep, evals_sweep = run `Sweep in
        let v_compiled, evals_compiled = run `Compiled in
        check_int "same output" v_sweep v_event;
        check_int "same output (compiled)" v_sweep v_compiled;
        check_bool
          (Printf.sprintf "fewer evals (%d < %d)" evals_event evals_sweep)
          true
          (evals_event < evals_sweep);
        check_bool
          (Printf.sprintf "tape no worse (%d <= %d)" evals_compiled
             evals_event)
          true
          (evals_compiled <= evals_event));
    t "iteration accounting is uniform: productive passes only" (fun () ->
        (* regression for the scheduler accounting skew: sweep used to
           report a minimum of one pass per settle (i + 1 on convergence)
           while event could report 0 — now every scheduler counts passes
           that changed at least one signal. On the reversed 2-level chain
           the first cycle needs 2 in-order passes interpreted (the
           levelized tape needs 1), and a quiescent cycle counts 0 for all
           three. *)
        let counts sched =
          let src, _, k = chain sched in
          Signal.set_int src 9;
          Kernel.cycle k;
          let first = (Kernel.stats k).Kernel.comb_iters in
          Kernel.cycle k;
          (first, (Kernel.stats k).Kernel.comb_iters - first)
        in
        let check_pair name exp got =
          Alcotest.(check (pair int int)) name exp got
        in
        check_pair "event (first, quiescent)" (2, 0) (counts `Event);
        check_pair "sweep (first, quiescent)" (2, 0) (counts `Sweep);
        check_pair "compiled (first, quiescent)" (1, 0) (counts `Compiled));
    t "seq-only kernel performs zero comb evals" (fun () ->
        let n = ref 0 in
        let k = Kernel.create () in
        Kernel.add k (Component.make ~seq:(fun () -> incr n) "counter");
        Kernel.run k 5;
        check_int "ran" 5 !n;
        check_int "no comb work" 0 (Kernel.stats k).Kernel.comb_evals);
    t "comb divergence detected with declared reads" (fun () ->
        (* a self-loop: the oscillator reads the signal it drives, so every
           evaluation re-marks it dirty and the delta loop never drains *)
        let s = Signal.create 8 in
        let k = Kernel.create ~max_comb_iters:8 () in
        Kernel.add k
          (Component.make
             ~comb:([ s ], fun () -> Signal.set s (Bits.succ (Signal.get s)))
             "oscillator");
        (match Kernel.cycle k with
        | () -> Alcotest.fail "expected divergence"
        | exception Kernel.Comb_divergence { iterations; _ } ->
            check_int "gave up at the limit" 8 iterations);
        Signal.clear_pending ());
    t "comb divergence detected under the compiled scheduler" (fun () ->
        (* same self-loop: the tape's reader mask re-marks the oscillator
           on every write, and the divergence guard counts executed passes
           exactly like the interpreted schedulers *)
        let s = Signal.create 8 in
        let k = Kernel.create ~max_comb_iters:8 ~sched:`Compiled () in
        Kernel.add k
          (Component.make
             ~comb:([ s ], fun () -> Signal.set s (Bits.succ (Signal.get s)))
             "oscillator");
        (match Kernel.cycle k with
        | () -> Alcotest.fail "expected divergence"
        | exception Kernel.Comb_divergence { iterations; _ } ->
            check_int "gave up at the limit" 8 iterations);
        Signal.clear_pending ());
    t "announced state changes re-evaluate the component, event and compiled"
      (fun () ->
        (* comb output depends only on state mutated by the component's own
           seq; no input signal ever changes. The seq announces each change
           of the comb-visible half of its counter, so the output tracks it
           with one evaluation per announcement and none in between *)
        List.iter
          (fun sched ->
            let out = Signal.create 8 in
            let count = ref 0 in
            let comp = ref None in
            let k = Kernel.create ~sched () in
            let c =
              Component.make
                ~comb:([], fun () -> Signal.set_int out (!count / 2))
                ~seq:(fun () ->
                  incr count;
                  if !count mod 2 = 0 then Option.iter Component.rearm !comp)
                "announcer"
            in
            comp := Some c;
            Kernel.add k c;
            Kernel.run k 7;
            (* settled (pre-edge) view of the seventh cycle: count = 6 *)
            check_int "tracks state" 3 (Signal.get_int out);
            (* the first settle plus one per announcement (counts 2, 4, 6) *)
            check_int "evaluated only when announced" 4
              (Kernel.stats k).Kernel.comb_evals)
          [ `Event; `Compiled ]);
    t "an unannounced state change is what the sweep oracle exposes" (fun () ->
        (* the same component with the announcement left out: under the
           sweep, which ignores announcements and evaluates everything,
           the output still tracks the state; under event and compiled it
           freezes at its first value. The fuzz sweep's event-vs-sweep data
           check relies on exactly this difference *)
        let trace sched =
          let out = Signal.create 8 in
          let count = ref 0 in
          let k = Kernel.create ~sched () in
          Kernel.add k
            (Component.make
               ~comb:([], fun () -> Signal.set_int out !count)
               ~seq:(fun () -> incr count)
               "silent");
          let seen = ref [] in
          Kernel.add_check k "trace" (fun _ -> seen := Signal.get_int out :: !seen);
          Kernel.run k 4;
          List.rev !seen
        in
        Alcotest.(check (list int)) "sweep tracks" [ 0; 1; 2; 3 ] (trace `Sweep);
        Alcotest.(check (list int)) "event misses" [ 0; 0; 0; 0 ] (trace `Event);
        Alcotest.(check (list int))
          "compiled misses" [ 0; 0; 0; 0 ] (trace `Compiled));
    t "Host.reset drops an announcement raised at the end of a run" (fun () ->
        (* a component that announces on every edge always leaves one
           announcement pending when a run stops; a replay after
           [Host.reset] must still equal a fresh build cycle for cycle and
           evaluation for evaluation *)
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type plb\n%bus_width 32\n\
             %base_address 0x80000000\nint add2(int x, int y);"
        in
        let build sched =
          let host =
            Host.create ~sched ~obs:Splice_obs.Obs.none spec
              ~behaviors:(fun _ ->
                Stub_model.behavior ~cycles:2 (fun inputs ->
                    [
                      Int64.add
                        (List.hd (List.assoc "x" inputs))
                        (List.hd (List.assoc "y" inputs));
                    ]))
          in
          (* adopted, so the replay snapshot restores its output too *)
          let out =
            Host.adopt host (fun () ->
                let out = Signal.create ~name:"ticks" 16 in
                let count = ref 0 in
                let comp = ref None in
                let c =
                  Component.make
                    ~comb:([], fun () -> Signal.set_int out !count)
                    ~seq:(fun () ->
                      incr count;
                      Option.iter Component.rearm !comp)
                    ~reset:(fun () -> count := 0)
                    "ticker"
                in
                comp := Some c;
                Kernel.add (Host.kernel host) c;
                out)
          in
          (host, out)
        in
        let call host =
          let r, cycles =
            Host.call host ~func:"add2" ~args:[ ("x", [ 20L ]); ("y", [ 22L ]) ]
          in
          let st = Kernel.stats (Host.kernel host) in
          (r, cycles, st.Kernel.comb_evals, st.Kernel.comb_iters)
        in
        List.iter
          (fun sched ->
            let host, out = build sched in
            let reuse = Host.prepare_reuse host in
            let fresh = call host in
            let fresh_ticks = Signal.get_int out in
            Host.reset host reuse;
            let replay = call host in
            check_bool "replay = fresh build" true (fresh = replay);
            check_int "ticker replays" fresh_ticks (Signal.get_int out);
            let other, _ = build sched in
            check_bool "fresh build = first run" true (call other = fresh))
          [ `Event; `Compiled ]);
  ]

(* a kernel whose one component counts in [s] on every edge *)
let counting_kernel ?obs s =
  let k = Kernel.create ?obs () in
  let counter = ref 0 in
  Kernel.add k
    (Component.make
       ~seq:(fun () ->
         incr counter;
         Signal.set_next_int s !counter)
       "drv");
  k

let raises_failure f =
  match f () with _ -> false | exception Failure _ -> true

let wave_tests =
  [
    t "wave captures history" (fun () ->
        let s = Signal.create ~name:"x" 4 in
        let k = counting_kernel s in
        let w = Wave.create k [ s ] in
        Kernel.run k 3;
        (* settled (pre-edge) view: the register still shows its old value
           during the cycle in which the new one is being computed *)
        let h = List.map Bits.to_int (Wave.history w s) in
        Alcotest.(check (list int)) "history" [ 0; 1; 2 ] h);
    t "wave renders 1-bit signals as pulses" (fun () ->
        let s = Signal.create ~name:"p" 1 in
        let k = Kernel.create () in
        let high = ref true in
        Kernel.add k
          (Component.make
             ~seq:(fun () ->
               Signal.set_next_bool s !high;
               high := false)
             "drv");
        let w = Wave.create k [ s ] in
        Kernel.run k 3;
        let r = Wave.render w in
        check_bool "contains _#_" true
          (Astring_contains.contains r "_#_"));
    t "vcd file is written with header and changes" (fun () ->
        let s = Signal.create ~name:"v" 8 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make ~seq:(fun () -> Signal.set_next_int s 255) "drv");
        let w = Wave.create k [ s ] in
        Kernel.run k 2;
        let contents = Wave.vcd w ~module_name:"tb" in
        check_bool "header" true (Astring_contains.contains contents "$var wire 8");
        check_bool "value change" true (Astring_contains.contains contents "b11111111"));
    t "vcd set_next lands under the right #N marker" (fun () ->
        (* a set_next issued in cycle c commits at the end of c, so the VCD
           (which dumps the settled pre-edge view under #(c+1)) must first
           show it under #(c+2) *)
        let s = Signal.create ~name:"v" 8 in
        let k = Kernel.create () in
        Kernel.add k
          (Component.make ~seq:(fun () -> Signal.set_next_int s 255) "drv");
        let w = Wave.create k [ s ] in
        Kernel.run k 2;
        let contents = Wave.vcd w ~module_name:"tb" in
        check_bool "under #2" true
          (Astring_contains.contains contents "#2\nb11111111");
        check_bool "not under #1" false
          (Astring_contains.contains contents "#1\nb11111111"));
    t "vcd dump is identical under all three schedulers" (fun () ->
        (* full-stack equivalence: the complete Fig 9.2 driver call, traced
           signal-by-signal and cycle-by-cycle *)
        let dump sched =
          let host =
            Splice.Interpolator.make_host ~sched
              Splice.Interpolator.Splice_plb_simple
          in
          let sis = Splice.Host.sis host in
          let w = Wave.create (Splice.Host.kernel host) (Sis_if.signals sis) in
          let r, c =
            Splice.Interpolator.run host (Splice.Interp_scenarios.by_id 1)
          in
          let stats = Kernel.stats (Splice.Host.kernel host) in
          (r, c, Wave.vcd w ~module_name:"tb", stats)
        in
        let r_e, c_e, d_e, s_e = dump `Event in
        let r_s, c_s, d_s, s_s = dump `Sweep in
        let r_c, c_c, d_c, s_c = dump `Compiled in
        Alcotest.(check int64) "result" r_s r_e;
        Alcotest.(check int64) "result (compiled)" r_s r_c;
        check_int "cycles" c_s c_e;
        check_int "cycles (compiled)" c_s c_c;
        Alcotest.(check string) "vcd dumps" d_s d_e;
        Alcotest.(check string) "vcd dumps (compiled)" d_s d_c;
        (* pinned whole: the bytes a per-settle sampler wrote for this call
           before waveforms were read from the recorder *)
        check_int "vcd length" 1701 (String.length d_s);
        Alcotest.(check string)
          "vcd md5" "71d298a3aa013ed1eef9bd247436521a"
          (Digest.to_hex (Digest.string d_s));
        (* scheduler-independent kernel stats agree too; comb_iters/evals
           legitimately differ (that is the point of a better scheduler) *)
        check_int "stats cycles" s_s.Kernel.cycles s_c.Kernel.cycles;
        check_int "stats checks_run" s_s.Kernel.checks_run
          s_c.Kernel.checks_run;
        check_int "stats cycles (event)" s_s.Kernel.cycles s_e.Kernel.cycles);
    t "a window needs a flight recorder" (fun () ->
        let s = Signal.create ~name:"x" 4 in
        List.iter
          (fun obs ->
            check_bool "raises" true
              (match Wave.create (Kernel.create ~obs ()) [ s ] with
              | _ -> false
              | exception Invalid_argument _ -> true))
          [ Obs.none; Obs.create ~recording:false () ]);
    t "a window refuses two signals of one name" (fun () ->
        let a = Signal.create ~name:"x" 4 and b = Signal.create ~name:"x" 4 in
        check_bool "raises" true
          (match Wave.create (Kernel.create ()) [ a; b ] with
          | _ -> false
          | exception Invalid_argument _ -> true));
    t "a read fails when the ring dropped events" (fun () ->
        let s = Signal.create ~name:"x" 8 in
        let k = counting_kernel ~obs:(Obs.create ~ring:16 ()) s in
        let w = Wave.create k [ s ] in
        Kernel.run k 4;
        check_int "fits" 4 (List.length (Wave.history w s));
        Kernel.run k 20;
        match Wave.render w with
        | _ -> Alcotest.fail "read a window the ring no longer holds"
        | exception Failure msg ->
            check_bool "names the option" true
              (Astring_contains.contains msg "Obs.create ~ring"));
    t "a read fails on a write no tick of the kernel recorded" (fun () ->
        let s = Signal.create ~name:"x" 8 in
        let k = counting_kernel s in
        let w = Wave.create k [ s ] in
        Kernel.run k 2;
        (* between ticks the store records into the kernel that cycled
           last: after [other] cycles, this write reaches no ring of [k] *)
        let other = Kernel.create ~obs:Obs.none () in
        Kernel.cycle other;
        Signal.set_int s 200;
        check_bool "history fails" true
          (raises_failure (fun () -> Wave.history w s));
        check_bool "vcd fails" true
          (raises_failure (fun () -> Wave.vcd w ~module_name:"tb")));
    t "a 64-bit signal's bit 63 is unknown after a change" (fun () ->
        let spec =
          Splice.Validate.of_string_exn ~lookup_bus:Splice.Registry.lookup_caps
            "%device_name d\n%bus_type plb\n%bus_width 64\n%base_address \
             0x0\nvoid f(int x);"
        in
        let host = Splice.Host.create spec ~behaviors:(fun _ -> Splice.Stub_model.null_behavior) in
        let data_in = (Splice.Host.sis host).Sis_if.data_in in
        check_int "64 bits" 64 (Signal.width data_in);
        let w = Wave.create (Splice.Host.kernel host) [ data_in ] in
        let _ = Splice.Host.call host ~func:"f" ~args:[ ("x", [ 5L ]) ] in
        check_bool "history raises" true
          (match Wave.history w data_in with
          | _ -> false
          | exception Invalid_argument _ -> true);
        check_bool "vcd prints x" true
          (Astring_contains.contains (Wave.vcd w ~module_name:"tb")
             ("bx" ^ String.make 60 '0' ^ "101 "));
        check_bool "render marks it" true
          (Astring_contains.contains (Wave.render w) " 5? "));
  ]

let determinism_tests =
  [
    t "two identical simulations produce identical traces" (fun () ->
        let run () =
          let spec =
            Splice.Validate.of_string_exn
              ~lookup_bus:Splice.Registry.lookup_caps
              "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address \
               0x0\nint f(int n, int*:n xs);"
          in
          let host =
            Splice.Host.create spec ~behaviors:(fun _ ->
                Splice.Stub_model.behavior ~cycles:5 (fun inputs ->
                    [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
          in
          let sis = Splice.Host.sis host in
          let wave =
            Wave.create (Splice.Host.kernel host) (Splice.Sis_if.signals sis)
          in
          let r, c =
            Splice.Host.call host ~func:"f"
              ~args:[ ("n", [ 3L ]); ("xs", [ 1L; 2L; 3L ]) ]
          in
          (r, c, Wave.render wave)
        in
        let r1, c1, w1 = run () in
        let r2, c2, w2 = run () in
        Alcotest.(check (list int64)) "results" r1 r2;
        check_int "cycles" c1 c2;
        Alcotest.(check string) "waves" w1 w2);
    (* a signal queues into and counts in the store of the domain that
       created it: a design built and run in another domain touches none
       of this domain's signal state *)
    t "a design built in another domain runs there alone" (fun () ->
        let impl = List.hd Splice.Interpolator.all_impls in
        let run () =
          let host = Splice.Interpolator.make_host ~obs:Obs.none impl in
          List.map (Splice.Interpolator.run host) Splice.Interp_scenarios.all
        in
        let here = run () in
        let changes = Signal.change_count () and pending = Signal.pending (Signal.store ()) in
        let there = Domain.join (Domain.spawn run) in
        Alcotest.(check (list (pair int64 int))) "results and cycles" here there;
        check_int "this domain's change count" changes (Signal.change_count ());
        check_int "this domain's pending writes" pending (Signal.pending (Signal.store ())));
  ]

(* Sleeping processes (Sleep): a kernel on [Obs.none] calls only awake
   processes and jumps over ticks where none can act; an observed kernel
   steps every tick. Each test runs both and compares. *)

let sleepy () = Kernel.create ~obs:Obs.none ()
let stepping () = Kernel.create ()

(* a process that acts every [period] edges, from a deadline: the ticks it
   acted on (newest first) and the number of times it was called *)
let ticker k ~period =
  let sleep = Sleep.create () in
  let due = ref 0 and acted = ref [] and calls = ref 0 in
  let seq () =
    incr calls;
    if Sleep.now sleep >= !due then begin
      acted := Kernel.cycles k :: !acted;
      due := Sleep.now sleep + period
    end;
    Sleep.sleep_until sleep !due
  in
  Kernel.add k
    (Component.make ~seq ~sleep
       ~reset:(fun () ->
         due := 0;
         acted := [];
         calls := 0)
       "ticker");
  (acted, calls)

(* the deterministic part of [Kernel.stats]: cycles, comb_iters,
   comb_evals, checks_run *)
let counters k =
  let s = Kernel.stats k in
  [ s.Kernel.cycles; s.Kernel.comb_iters; s.Kernel.comb_evals; s.Kernel.checks_run ]

let check_counters name a b = Alcotest.(check (list int)) name (counters a) (counters b)

let sleep_tests =
  [
    t "a sleeper wakes exactly at its deadline" (fun () ->
        let run k =
          let acted, calls = ticker k ~period:5 in
          let check_sleep = Sleep.create () in
          Kernel.add_check ~sleep:check_sleep k "idle" (fun _ -> Sleep.sleep check_sleep);
          Kernel.run k 20;
          (List.rev !acted, !calls)
        in
        let k = sleepy () and k' = stepping () in
        let acted, calls = run k and acted', calls' = run k' in
        Alcotest.(check (list int)) "acts on every fifth tick" [ 0; 5; 10; 15 ] acted;
        Alcotest.(check (list int)) "as when stepped" acted' acted;
        check_int "called only when due" 4 calls;
        check_int "stepped kernel calls every tick" 20 calls';
        check_int "stepped ticks" 4 (Kernel.stats k).Kernel.stepped;
        check_int "every tick stepped" 20 (Kernel.stats k').Kernel.stepped;
        check_int "domain edges credited" 20 (Kernel.domain_cycles (Kernel.base_domain k));
        check_counters "stats" k' k;
        check_int "the sleeping check is credited" 20 (Kernel.stats k).Kernel.checks_run);
    t "a signal wake acts on the same tick as stepping would" (fun () ->
        let run k =
          (* a register raised by a deadline process, mirrored by a comb,
             watched by a process asleep until the mirror changes *)
          let r = Signal.create ~name:"r" 1 and m = Signal.create ~name:"m" 1 in
          let sleep = Sleep.create ~wake_on:[ m ] () in
          let seen = ref [] and last = ref false in
          Kernel.add k
            (Component.make ~sleep
               ~seq:(fun () ->
                 if Signal.get_bool m <> !last then begin
                   last := Signal.get_bool m;
                   seen := Kernel.cycles k :: !seen
                 end;
                 Sleep.sleep sleep)
               "watcher");
          Kernel.add k
            (Component.make ~comb:([ r ], fun () -> Signal.set m (Signal.get r)) "mirror");
          let raise_at = Sleep.create () in
          Kernel.add k
            (Component.make ~sleep:raise_at
               ~seq:(fun () ->
                 if Sleep.now raise_at >= 7 then begin
                   Signal.set_next_bool r true;
                   Sleep.sleep raise_at
                 end
                 else Sleep.sleep_until raise_at 7)
               "raiser");
          Kernel.run k 30;
          List.rev !seen
        in
        let k = sleepy () and k' = stepping () in
        let seen = run k and seen' = run k' in
        Alcotest.(check (list int)) "acts the tick the mirror rises" [ 8 ] seen;
        Alcotest.(check (list int)) "as when stepped" seen' seen;
        check_counters "stats" k' k;
        check_bool "jumped" true ((Kernel.stats k).Kernel.stepped < 30));
    t "a model's wake acts on the same tick as stepping would" (fun () ->
        (* the waker sets a flag at tick 12 and wakes the waiter, which is
           asleep until woken: a waiter later in the tick sees the flag on
           12, an earlier one on 13 *)
        let run k ~waiter_first =
          let waiter = Sleep.create () and flag = ref false and seen = ref [] in
          let w =
            Component.make ~sleep:waiter "waiter" ~seq:(fun () ->
                if !flag then begin
                  flag := false;
                  seen := Kernel.cycles k :: !seen
                end;
                Sleep.sleep waiter)
          in
          let at = Sleep.create () and fired = ref false in
          let x =
            Component.make ~sleep:at "waker" ~seq:(fun () ->
                if (not !fired) && Sleep.now at >= 12 then begin
                  fired := true;
                  flag := true;
                  Sleep.wake waiter
                end;
                if !fired then Sleep.sleep at else Sleep.sleep_until at 12)
          in
          List.iter (Kernel.add k) (if waiter_first then [ w; x ] else [ x; w ]);
          Kernel.run k 20;
          List.rev !seen
        in
        List.iter
          (fun waiter_first ->
            let k = sleepy () and k' = stepping () in
            let seen = run k ~waiter_first and seen' = run k' ~waiter_first in
            Alcotest.(check (list int)) "the tick" [ (if waiter_first then 13 else 12) ] seen;
            Alcotest.(check (list int)) "as when stepped" seen' seen;
            check_counters "stats" k' k)
          [ true; false ]);
    t "run n never overshoots" (fun () ->
        let k = sleepy () in
        let acted, _ = ticker k ~period:100 in
        Kernel.run k 10;
        check_int "stops at the end of the run" 10 (Kernel.cycles k);
        Kernel.run k 95;
        check_int "and again" 105 (Kernel.cycles k);
        Alcotest.(check (list int)) "acted at its deadlines" [ 0; 100 ] (List.rev !acted);
        check_int "edges" 105 (Kernel.domain_cycles (Kernel.base_domain k)));
    t "run_until ~max raises the same Timeout fields as stepping" (fun () ->
        let timeout k =
          ignore (ticker k ~period:1000);
          Kernel.run k 3;
          match Kernel.run_until ~max:50 ~what:"never" k (fun () -> false) with
          | _ -> Alcotest.fail "expected a timeout"
          | exception Kernel.Timeout { cycle; elapsed; waiting_for } ->
              (cycle, elapsed, waiting_for)
        in
        let k = sleepy () and k' = stepping () in
        let c, e, w = timeout k and c', e', w' = timeout k' in
        check_int "cycle" c' c;
        check_int "elapsed" e' e;
        Alcotest.(check string) "message" w' w;
        check_int "at max" 53 c;
        check_bool "jumped" true ((Kernel.stats k).Kernel.stepped < 10);
        check_counters "stats" k' k);
    t "an undeclared process makes the kernel step every tick" (fun () ->
        let k = sleepy () in
        ignore (ticker k ~period:1000);
        let calls = ref 0 in
        Kernel.add k (Component.make ~seq:(fun () -> incr calls) "always");
        Kernel.run k 25;
        check_int "called every tick" 25 !calls;
        check_int "every tick stepped" 25 (Kernel.stats k).Kernel.stepped);
    t "Kernel.reset clears sleep state: a replay equals a fresh build" (fun () ->
        let build () =
          let k = sleepy () in
          let acted, calls = ticker k ~period:7 in
          (k, acted, calls)
        in
        let run (k, acted, calls) =
          Kernel.run k 30;
          (List.rev !acted, !calls, counters k, (Kernel.stats k).Kernel.stepped)
        in
        let fresh = run (build ()) in
        let ((k, _, _) as replayed) = build () in
        Kernel.run k 12 (* leaves the ticker asleep until edge 14 *);
        Kernel.reset k;
        let replay = run replayed in
        check_bool "replay equals a fresh build" true (fresh = replay));
  ]

let tests =
  [
    ("sim.signal", signal_tests);
    ("sim.kernel", kernel_tests);
    ("sim.scheduler", scheduler_tests);
    ("sim.wave", wave_tests);
    ("sim.determinism", determinism_tests);
    ("sim.sleep", sleep_tests);
  ]
