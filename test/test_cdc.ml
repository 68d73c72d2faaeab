(* Multi-clock CDC: Gray-code and async-FIFO properties (QCheck), AXI4-Lite
   bridge end-to-end behaviour, cross-scheduler equality on a two-domain
   cell, -j invariance, and the fixed-seed fuzz regression corpus.

   The QCheck run seed prints on start-up; pin with QCHECK_SEED to
   reproduce (same contract as test_properties.ml). *)

open Splice_sim

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qseed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> failwith "QCHECK_SEED must be an integer")
  | None ->
      Random.self_init ();
      Random.bits ()

let prop ?(count = 60) name arb f =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qseed |])
    (QCheck.Test.make ~count ~name arb f)

(* -------- Gray code -------- *)

let popcount n =
  let rec go acc n = if n = 0 then acc else go (acc + (n land 1)) (n lsr 1) in
  go 0 n

let gray_props =
  [
    prop ~count:200 "successive Gray codes differ in exactly one bit"
      QCheck.(int_bound 0x3FFFFFFF)
      (fun n ->
        popcount
          (Splice.Async_fifo.gray_encode n
          lxor Splice.Async_fifo.gray_encode (n + 1))
        = 1);
    prop ~count:200 "gray_decode inverts gray_encode"
      QCheck.(int_bound 0x3FFFFFFF)
      (fun n ->
        Splice.Async_fifo.gray_decode (Splice.Async_fifo.gray_encode n) = n);
    prop ~count:200 "wrap-around adjacency on a pointer ring"
      QCheck.(int_bound 14)
      (fun k ->
        (* a (k+1)-bit Gray pointer ring: 2^k-1 -> 0 modulo 2^(k+1) also
           differs in one bit, the property the full/empty compares rely on *)
        let m = 1 lsl (k + 1) in
        popcount
          (Splice.Async_fifo.gray_encode (m - 1)
          lxor Splice.Async_fifo.gray_encode 0)
        = 1);
  ]

(* -------- async FIFO under random push/pop schedules -------- *)

(* One FIFO scenario: clock periods and phases for each side, a depth, a
   payload, and a seed for the push/pop gating coins. *)
type scenario = {
  sc_wr : int * int; (* write-domain period, phase *)
  sc_rd : int * int;
  sc_depth : int;
  sc_values : int list;
  sc_coin : int;
}

let gen_scenario =
  QCheck.Gen.(
    let* wp = int_range 1 5 in
    let* wf = int_range 0 (wp - 1) in
    let* rp = int_range 1 5 in
    let* rf = int_range 0 (rp - 1) in
    let* dlog = int_range 1 6 in
    let* n = int_range 1 120 in
    let* values = list_repeat n (int_bound 0xFFFF) in
    let* coin = int_bound 0x3FFFFFFF in
    return
      {
        sc_wr = (wp, wf);
        sc_rd = (rp, rf);
        sc_depth = 1 lsl dlog;
        sc_values = values;
        sc_coin = coin;
      })

let print_scenario sc =
  Printf.sprintf "wr=%d/%d rd=%d/%d depth=%d n=%d coin=%d"
    (fst sc.sc_wr) (snd sc.sc_wr) (fst sc.sc_rd) (snd sc.sc_rd) sc.sc_depth
    (List.length sc.sc_values) sc.sc_coin

let shrink_scenario sc =
  QCheck.Iter.of_list
    ((if sc.sc_depth > 2 then [ { sc with sc_depth = sc.sc_depth / 2 } ] else [])
    @ (if sc.sc_wr <> (1, 0) then [ { sc with sc_wr = (1, 0) } ] else [])
    @ (if sc.sc_rd <> (1, 0) then [ { sc with sc_rd = (1, 0) } ] else [])
    @
    match sc.sc_values with
    | _ :: (_ :: _ as rest) -> [ { sc with sc_values = rest } ]
    | _ -> [])

let arb_scenario = QCheck.make ~print:print_scenario ~shrink:shrink_scenario gen_scenario

(* Push every value through the FIFO with coin-flip pacing on both sides;
   the FIFO's own overflow/underflow assertions arm the run, an every-tick
   settle hook asserts the flags stay conservative, and the drained
   sequence must equal the pushed one exactly (no drop/dup/reorder).
   [on_tick], when given, sees the FIFO after every settle. *)
let run_scenario ?(sched = `Event) ?(on_tick = fun _ -> ()) sc =
  Signal.reset_names ();
  let k = Kernel.create ~sched ~obs:Splice_obs.Obs.none () in
  let wr_dom =
    Kernel.add_domain k ~name:"wr" ~phase:(snd sc.sc_wr) ~period:(fst sc.sc_wr) ()
  in
  let rd_dom =
    Kernel.add_domain k ~name:"rd" ~phase:(snd sc.sc_rd) ~period:(fst sc.sc_rd) ()
  in
  let f =
    Splice.Async_fifo.create k ~wr_dom ~rd_dom ~depth:sc.sc_depth ~width:16
  in
  let rng = Splice.Splitmix.make sc.sc_coin in
  let remaining = ref sc.sc_values in
  let popped = ref [] in
  let pusher () =
    if Signal.get_bool (Splice.Async_fifo.wr_en f) then
      (* this edge consumes the pending push; one-edge pulse discipline *)
      Signal.set_next_bool (Splice.Async_fifo.wr_en f) false
    else
      match !remaining with
      | v :: rest
        when (not (Signal.get_bool (Splice.Async_fifo.full f)))
             && Splice.Splitmix.bool rng ->
          Signal.set_next (Splice.Async_fifo.wr_data f)
            (Splice.Bits.create ~width:16 (Int64.of_int v));
          Signal.set_next_bool (Splice.Async_fifo.wr_en f) true;
          remaining := rest
      | _ -> ()
  in
  let popper () =
    if Signal.get_bool (Splice.Async_fifo.rd_en f) then begin
      (* consuming edge: rd_data still shows the head being popped *)
      popped :=
        Int64.to_int (Splice.Bits.to_int64 (Signal.get (Splice.Async_fifo.rd_data f)))
        :: !popped;
      Signal.set_next_bool (Splice.Async_fifo.rd_en f) false
    end
    else if
      (not (Signal.get_bool (Splice.Async_fifo.empty f)))
      && Splice.Splitmix.bool rng
    then Signal.set_next_bool (Splice.Async_fifo.rd_en f) true
  in
  Kernel.add_in k wr_dom (Component.make ~seq:pusher "pusher");
  Kernel.add_in k rd_dom (Component.make ~seq:popper "popper");
  (* flag conservatism, checked on every settled tick: a deasserted flag
     must tell the truth (full=0 -> room; empty=0 -> a word), and the
     exact level stays in range *)
  Kernel.on_settle k (fun _ ->
      let lv = Splice.Async_fifo.level f in
      if lv < 0 || lv > sc.sc_depth then
        failwith (Printf.sprintf "level %d out of range" lv);
      if (not (Signal.get_bool (Splice.Async_fifo.full f))) && lv >= sc.sc_depth
      then failwith "full deasserted while truly full";
      if Signal.get_bool (Splice.Async_fifo.empty f) = false && lv = 0 then
        failwith "empty deasserted while truly empty";
      on_tick f);
  let n = List.length sc.sc_values in
  let budget = ref (200 + (n * 40 * 5)) in
  while List.length !popped < n && !budget > 0 do
    Kernel.cycle k;
    decr budget
  done;
  if !budget <= 0 then Error "FIFO stalled (liveness)"
  else if List.rev !popped <> sc.sc_values then
    Error "drained sequence differs from pushed sequence"
  else if Splice.Async_fifo.level f <> 0 then Error "non-zero final level"
  else Ok ()

let fifo_props =
  [
    prop ~count:80 "async FIFO never drops, duplicates or reorders"
      arb_scenario
      (fun sc ->
        match run_scenario sc with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_report (e ^ ": " ^ print_scenario sc)
        | exception Failure e ->
            QCheck.Test.fail_report (e ^ ": " ^ print_scenario sc));
  ]

(* -------- async FIFO soundness across schedulers -------- *)

(* The FIFO's combs announce no state change: [rd_comb] reads [mem] at
   the read pointer, which is sound only because that slot cannot change
   while the FIFO reads as non-empty. A random push/pop schedule at every
   AXI clock ratio and depth, in both crossing directions, must then give
   the same [rd_data]/[empty]/[full] trace, tick by tick, under event and
   compiled as under the sweep, which evaluates every comb every pass. *)
let gen_schedule =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* values = list_repeat n (int_bound 0xFFFF) in
    let* coin = int_bound 0x3FFFFFFF in
    return (values, coin))

let arb_schedule =
  QCheck.make
    ~print:(fun (values, coin) ->
      Printf.sprintf "n=%d coin=%d" (List.length values) coin)
    gen_schedule

let fifo_trace sched sc =
  let trace = ref [] in
  let on_tick f =
    trace :=
      ( Signal.get_int (Splice.Async_fifo.rd_data f),
        Signal.get_bool (Splice.Async_fifo.empty f),
        Signal.get_bool (Splice.Async_fifo.full f) )
      :: !trace
  in
  match run_scenario ~sched ~on_tick sc with
  | Ok () -> Ok (List.rev !trace)
  | Error e -> Error e
  | exception Failure e -> Error e

let soundness_props =
  [
    prop ~count:12 "async FIFO traces agree under event, sweep and compiled"
      arb_schedule
      (fun (values, coin) ->
        List.for_all
          (fun ratio ->
            let fast, slow = Splice.Axi.periods ratio in
            List.for_all
              (fun depth ->
                List.for_all
                  (fun (wr, rd) ->
                    let sc =
                      { sc_wr = (wr, 0); sc_rd = (rd, 0); sc_depth = depth;
                        sc_values = values; sc_coin = coin }
                    in
                    let where =
                      Printf.sprintf "%d:%d depth %d, %s" (fst ratio)
                        (snd ratio) depth (print_scenario sc)
                    in
                    match fifo_trace `Sweep sc with
                    | Error e -> QCheck.Test.fail_report (e ^ ": " ^ where)
                    | Ok oracle ->
                        List.for_all
                          (fun sched ->
                            fifo_trace sched sc = Ok oracle
                            || QCheck.Test.fail_reportf "%s trace differs: %s"
                                 (if sched = `Event then "event" else "compiled")
                                 where)
                          [ `Event; `Compiled ])
                  [ (fast, slow); (slow, fast) ])
              Splice.Axi.depths_all)
          Splice.Axi.ratios_all);
  ]

(* -------- AXI host end-to-end -------- *)

let axi_spec =
  "%device_name cdc\n%bus_type axi\n%bus_width 32\n%base_address 0x80000000\n\
   int add2(int x, int y);\nint sum(int n, int*:n xs);"

let make_host ?(ratio = (3, 1)) ?(depth = 4) ?sched () =
  let spec =
    Splice.Validate.of_string_exn ~lookup_bus:Splice.Registry.lookup_caps
      axi_spec
  in
  Splice.Host.create ?sched ~cdc:{ Splice.Bus.ratio; depth } spec
    ~behaviors:(function
    | "add2" ->
        Splice.Stub_model.behavior ~cycles:3 (fun inputs ->
            [
              Int64.add
                (List.hd (List.assoc "x" inputs))
                (List.hd (List.assoc "y" inputs));
            ])
    | _ ->
        Splice.Stub_model.behavior ~cycles:5 (fun inputs ->
            [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))

(* one monitored add2 call on [host]: the number of checks it ran *)
let monitored_add2_checks host =
  let k = Splice.Host.kernel host in
  Splice.Bus_monitor.attach k ~bus:"axi" (Splice.Host.sis host);
  ignore
    (Splice.Host.call host ~func:"add2" ~args:[ ("x", [ 1L ]); ("y", [ 2L ]) ]);
  (Kernel.stats k).Kernel.checks_run

let smoke_tests =
  [
    t "axi host: add2 over the CDC bridge" (fun () ->
        let host = make_host () in
        let r, c =
          Splice.Host.call host ~func:"add2"
            ~args:[ ("x", [ 20L ]); ("y", [ 22L ]) ]
        in
        Alcotest.(check (list int64)) "20 + 22" [ 42L ] r;
        check_bool "cycles sane" true (c > 0));
    t "axi host: burst-sized args at several ratios and depths" (fun () ->
        List.iter
          (fun (ratio, depth) ->
            let host = make_host ~ratio ~depth () in
            let r, _ =
              Splice.Host.call host ~func:"sum"
                ~args:[ ("n", [ 4L ]); ("xs", [ 1L; 2L; 3L; 4L ]) ]
            in
            Alcotest.(check (list int64))
              (Printf.sprintf "sum at %d:%d depth %d" (fst ratio) (snd ratio)
                 depth)
              [ 10L ] r)
          [ ((1, 1), 2); ((2, 1), 4); ((3, 2), 2); ((5, 2), 8) ]);
    t "axi host: clean under both protocol monitors" (fun () ->
        let host = make_host ~ratio:(3, 2) ~depth:2 () in
        Splice.Bus_monitor.attach (Splice.Host.kernel host) ~bus:"axi"
          (Splice.Host.sis host);
        check_bool "axi-channels check registered" true
          (List.mem "axi-channels"
             (Kernel.check_names (Splice.Host.kernel host)));
        let r, _ =
          Splice.Host.call host ~func:"add2"
            ~args:[ ("x", [ 1L ]); ("y", [ 2L ]) ]
        in
        Alcotest.(check (list int64)) "monitored result" [ 3L ] r);
    t "axi native check does not depend on how many axi hosts were built"
      (fun () ->
        (* the bridge carries its own axi-channels check, so a host that
           gets its SIS monitor late — after eight more AXI builds in this
           domain — runs exactly the checks of one monitored at once *)
        let early = monitored_add2_checks (make_host ()) in
        let late = make_host () in
        for _ = 1 to 8 do
          ignore (make_host ())
        done;
        check_int "checks run by one add2 call" early
          (monitored_add2_checks late);
        check_bool "axi-channels on the late host" true
          (List.mem "axi-channels"
             (Kernel.check_names (Splice.Host.kernel late))));
    t "axi domains: cycle counters follow the reduced ratio" (fun () ->
        let host = make_host ~ratio:(6, 2) () in
        let k = Splice.Host.kernel host in
        let aclk = Option.get (Kernel.find_domain k "axi.aclk") in
        let pclk = Option.get (Kernel.find_domain k "axi.pclk") in
        (* 6:2 reduces to 3:1 -> ACLK fires every tick, PCLK every third *)
        check_int "aclk period" 1 (Kernel.domain_period aclk);
        check_int "pclk period" 3 (Kernel.domain_period pclk);
        ignore
          (Splice.Host.call host ~func:"add2"
             ~args:[ ("x", [ 1L ]); ("y", [ 1L ]) ]);
        let a = Kernel.domain_cycles aclk and p = Kernel.domain_cycles pclk in
        check_bool "counters advanced" true (a > 0 && p > 0);
        check_bool
          (Printf.sprintf "aclk (%d) ~ 3x pclk (%d)" a p)
          true
          (a >= (3 * p) - 3 && a <= (3 * p) + 3));
  ]

(* -------- scheduler equality on a two-domain cell -------- *)

(* the bridge's AXI4-Lite channels, by signal name *)
let native_channels =
  List.map (( ^ ) "axi.")
    [ "AWVALID"; "AWREADY"; "AWADDR"; "WVALID"; "WREADY"; "WDATA"; "BVALID";
      "BREADY"; "BRESP"; "ARVALID"; "ARREADY"; "ARADDR"; "RVALID"; "RREADY";
      "RDATA"; "RRESP" ]

let vcd_timestamps contents =
  List.filter_map
    (fun line ->
      if String.length line > 1 && line.[0] = '#' then
        int_of_string_opt (String.sub line 1 (String.length line - 1))
      else None)
    (String.split_on_char '\n' contents)

let sched_tests =
  [
    t "vcd dump is identical under all three schedulers (two-domain axi)"
      (fun () ->
        let dump sched =
          Signal.reset_names ();
          let host = make_host ~ratio:(3, 2) ~depth:2 ~sched () in
          let k = Splice.Host.kernel host in
          Splice.Bus_monitor.attach k ~bus:"axi" (Splice.Host.sis host);
          let native =
            List.filter
              (fun s -> List.mem (Signal.name s) native_channels)
              (Splice.Host.signals host)
          in
          check_int "native channels found" 16 (List.length native);
          let path = Filename.temp_file "splice_cdc" ".vcd" in
          let vcd =
            Vcd.create ~path ~module_name:"tb"
              (Splice.Sis_if.signals (Splice.Host.sis host) @ native)
          in
          Vcd.attach vcd k;
          let r, c =
            Splice.Host.call host ~func:"sum"
              ~args:[ ("n", [ 3L ]); ("xs", [ 5L; 6L; 7L ]) ]
          in
          Vcd.close vcd;
          let stats = Kernel.stats k in
          let ic = open_in path in
          let contents = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Sys.remove path;
          (r, c, contents, stats)
        in
        let r_e, c_e, d_e, s_e = dump `Event in
        let r_s, c_s, d_s, s_s = dump `Sweep in
        let r_c, c_c, d_c, s_c = dump `Compiled in
        Alcotest.(check (list int64)) "result" r_s r_e;
        Alcotest.(check (list int64)) "result (compiled)" r_s r_c;
        check_int "cycles" c_s c_e;
        check_int "cycles (compiled)" c_s c_c;
        Alcotest.(check string) "vcd dumps" d_s d_e;
        Alcotest.(check string) "vcd dumps (compiled)" d_s d_c;
        check_int "stats cycles" s_s.Kernel.cycles s_c.Kernel.cycles;
        check_int "stats checks_run" s_s.Kernel.checks_run
          s_c.Kernel.checks_run;
        check_int "stats cycles (event)" s_s.Kernel.cycles s_e.Kernel.cycles;
        (* timestamps strictly increase: the two domains' edges interleave
           into one monotone tape *)
        let ts = vcd_timestamps d_e in
        check_bool "monotone timestamps" true
          (fst
             (List.fold_left
                (fun (ok, prev) t -> (ok && t > prev, t))
                (true, -1) ts)));
  ]

(* -------- domain gating, tick by tick -------- *)

(* The base domain plus period 2 phase 1 and period 3 phase 2: every gated
   item (a seq, a check, a settle hook) of a domain must run on exactly the
   ticks [n] with [n mod period = phase], [Kernel.fires] must agree on every
   tick, and a reset must rewind the schedule to tick 0 *)
let gating_ticks = 30

let gating_tests =
  List.map
    (fun (sched, name) ->
      t (Printf.sprintf "domain gating tick by tick (%s)" name) (fun () ->
          let k = Kernel.create ~sched () in
          let doms =
            [
              Kernel.base_domain k;
              Kernel.add_domain k ~name:"p2" ~phase:1 ~period:2 ();
              Kernel.add_domain k ~name:"p3" ~phase:2 ~period:3 ();
            ]
          in
          let logs =
            List.map
              (fun d ->
                let seq = ref [] and chk = ref [] and settle = ref [] in
                let fired = ref [] in
                let dn = Kernel.domain_name d in
                Kernel.add_in k d
                  (Component.make
                     ~seq:(fun () -> seq := Kernel.cycles k :: !seq)
                     ("seq_" ^ dn));
                Kernel.add_check_in k d ("check_" ^ dn) (fun n ->
                    chk := n :: !chk);
                Kernel.on_settle_in k d (fun n -> settle := n :: !settle);
                (* an ungated probe: [fires] on every tick *)
                Kernel.on_settle k (fun n ->
                    if Kernel.fires k d then fired := n :: !fired);
                (d, [ ("seq", seq); ("check", chk); ("settle", settle);
                      ("fires", fired) ]))
              doms
          in
          let run label =
            List.iter
              (fun (_, l) -> List.iter (fun (_, r) -> r := []) l)
              logs;
            Kernel.run k gating_ticks;
            List.iter
              (fun (d, l) ->
                let p = Kernel.domain_period d and ph = Kernel.domain_phase d in
                let want =
                  List.filter
                    (fun n -> n mod p = ph)
                    (List.init gating_ticks Fun.id)
                in
                List.iter
                  (fun (what, r) ->
                    Alcotest.(check (list int))
                      (Printf.sprintf "%s: %s %s ticks" label
                         (Kernel.domain_name d) what)
                      want (List.rev !r))
                  l;
                check_int
                  (Printf.sprintf "%s: %s domain_cycles" label
                     (Kernel.domain_name d))
                  (List.length want) (Kernel.domain_cycles d))
              logs
          in
          run "first run";
          Kernel.reset k;
          run "after reset"))
    [ (`Event, "event"); (`Sweep, "sweep"); (`Compiled, "compiled") ]
  @ [
      t "a domain added mid-run fires on tick mod period = phase" (fun () ->
          let k = Kernel.create ~obs:Splice_obs.Obs.none () in
          Kernel.run k 7;
          let d = Kernel.add_domain k ~name:"late" ~phase:2 ~period:3 () in
          let log = ref [] in
          Kernel.add_in k d
            (Component.make ~seq:(fun () -> log := Kernel.cycles k :: !log) "late");
          Kernel.run k 13;
          Alcotest.(check (list int)) "edge ticks" [ 8; 11; 14; 17 ] (List.rev !log);
          check_int "domain_cycles" 4 (Kernel.domain_cycles d));
    ]

(* -------- fixed-seed fuzz regression corpus -------- *)

(* Frozen (seed, pins) cells replayed on every dune runtest: each one runs
   a full spec + traffic on the axi matrix under all three schedulers with
   monitors attached. Seeds are arbitrary but FROZEN — a failure here is a
   regression, and the printed repro command localises it. *)
let corpus =
  [
    (0, None, None);
    (1, None, None);
    (7, None, None);
    (42, None, None);
    (1337, None, None);
    (99991, None, None);
    (7, Some (5, 2), Some 2);
    (42, Some (1, 1), Some 16);
  ]

let corpus_tests =
  [
    t "fixed-seed axi corpus replays clean" (fun () ->
        List.iter
          (fun (seed, ratio, depth) ->
            let report =
              Splice.Diff.run
                {
                  Splice.Diff.default_config with
                  seed;
                  count = 1;
                  buses = [ "axi" ];
                  ratio;
                  depth;
                }
            in
            match report.Splice.Diff.r_failure with
            | None -> ()
            | Some f ->
                Alcotest.failf "corpus seed %d: %a" seed
                  Splice.Diff.pp_failure f)
          corpus);
    t "axi sweep digest is -j invariant" (fun () ->
        let config =
          { Splice.Diff.default_config with seed = 11; count = 4;
            buses = [ "axi" ] }
        in
        let seq = Splice.Diff.run config in
        let par =
          Splice.Pool.with_pool ~domains:3 (fun p ->
              Splice.Diff.run ~pool:p config)
        in
        check_bool "no failure (seq)" true (seq.Splice.Diff.r_failure = None);
        check_bool "no failure (par)" true (par.Splice.Diff.r_failure = None);
        Alcotest.(check int64)
          "digest" seq.Splice.Diff.r_digest par.Splice.Diff.r_digest;
        check_int "calls" seq.Splice.Diff.r_calls par.Splice.Diff.r_calls);
  ]

let tests =
  [
    ("cdc.gray", gray_props);
    ("cdc.fifo", fifo_props @ soundness_props);
    ("cdc", smoke_tests);
    ("cdc.sched", sched_tests);
    ("cdc.gating", gating_tests);
    ("cdc.corpus", corpus_tests);
  ]
