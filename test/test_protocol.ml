(* Pinned protocol-violation messages. Every distinct message of the
   [sis-protocol] checker and of every per-bus rule table (dedicated and
   generic) is hit by a raw SIS trace — lines driven directly, no adapter,
   no stubs — and each case pins the check name, the exact message and the
   cycle the violation is reported at. *)

open Splice

let rst v (s : Sis_if.t) = Signal.set_bool s.Sis_if.rst v
let en v (s : Sis_if.t) = Signal.set_bool s.Sis_if.io_enable v
let div v (s : Sis_if.t) = Signal.set_bool s.Sis_if.data_in_valid v
let dov v (s : Sis_if.t) = Signal.set_bool s.Sis_if.data_out_valid v
let done_ v (s : Sis_if.t) = Signal.set_bool s.Sis_if.io_done v
let fid v (s : Sis_if.t) = Signal.set_int s.Sis_if.func_id v
let data v (s : Sis_if.t) = Signal.set s.Sis_if.data_in (Bits.of_int ~width:32 v)

(* per-cycle line settings; a line keeps its value until set again *)
let write_word = [ en true; div true; fid 1; data 5 ]
let read_req = [ en true; div false; fid 2 ]
let quiet = [ en false; div false; done_ false; dov false ]

type monitor = Sis | Bus of string

type case = {
  monitor : monitor;
  trace : (Sis_if.t -> unit) list list;
  cycle : int;
  message : string;
}

let sis ~cycle message trace = { monitor = Sis; trace; cycle; message }
let bus b ~cycle message trace = { monitor = Bus b; trace; cycle; message }

let check_name = function Sis -> "sis-protocol" | Bus b -> b ^ "-protocol"

(* one trace per acknowledge/stability entry of a rule table ([None] when
   the table has no such rule) *)
let bus_rules b ~wr_ack ~rd_ack ~stable_fid ~stable_data =
  List.filter_map Fun.id
    [
      Option.map (fun m -> bus b ~cycle:0 m [ [ done_ true ] ]) wr_ack;
      Option.map
        (fun m -> bus b ~cycle:0 m [ [ done_ true; dov true ] ])
        rd_ack;
      Option.map
        (fun m -> bus b ~cycle:1 m [ read_req; [ en false; fid 3 ] ])
        stable_fid;
      Option.map
        (fun m -> bus b ~cycle:1 m [ write_word; [ en false; data 6 ] ])
        stable_data;
    ]

let apb_like b ~rd_ack ~single_cycle_access ~no_write_stall =
  [
    bus b ~cycle:0 rd_ack [ [ done_ true; dov true ] ];
    bus b ~cycle:1 single_cycle_access [ read_req; [] ];
    bus b ~cycle:0 no_write_stall [ write_word ];
  ]

let cases =
  [
    (* §4.2.1 axioms *)
    sis ~cycle:0 "IO_ENABLE asserted during reset" [ [ rst true; en true ] ];
    sis ~cycle:1 "new IO_ENABLE while a write word is outstanding"
      [ write_word; [] ];
    sis ~cycle:1 "DATA_IN_VALID dropped before IO_DONE on a write"
      [ write_word; [ en false; div false ] ];
    sis ~cycle:3 "DATA_IN changed before IO_DONE on a write (§4.2.1)"
      [ write_word @ [ done_ true ]; quiet; write_word; [ en false; data 6 ] ];
    sis ~cycle:1 "FUNC_ID changed before IO_DONE on a write (§4.2.1)"
      [ write_word; [ en false; fid 2 ] ];
    sis ~cycle:3 "new IO_ENABLE while a read is outstanding"
      [ write_word @ [ done_ true ]; quiet; read_req; [] ];
    sis ~cycle:1 "FUNC_ID changed while a read is outstanding (§4.2.1)"
      [ read_req; [ en false; fid 3 ] ];
    sis ~cycle:1 "DATA_OUT_VALID asserted without IO_DONE (Fig 4.3)"
      [ []; [ dov true ] ];
    sis ~cycle:0
      "write presented to FUNC_ID 0 (status register is read-only)"
      [ [ en true; div true; fid 0; done_ true ] ];
    (* shared SIS-side rules of every bus monitor *)
    bus "plb" ~cycle:0 "request strobed during bus reset"
      [ [ rst true; en true ] ];
    bus "axi" ~cycle:2 "request strobed during bus reset"
      [ []; []; [ rst true; en true ] ];
    bus "plb" ~cycle:0
      "write presented to the read-only status register (FUNC_ID 0)"
      [ [ en true; div true; fid 0; done_ true ] ];
    (* a write acknowledge after a completed read: the read is closed *)
    bus "plb" ~cycle:3
      "PLB_WrAck asserted with no write in flight (dataAck before addrAck)"
      [ read_req; [ en false; done_ true; dov true ]; quiet; [ done_ true ] ];
    (* OPB single-cycle strobes *)
    bus "opb" ~cycle:1
      "Sln_XferAck held for consecutive cycles (xferAck is a single-cycle \
       strobe)"
      [ write_word @ [ done_ true ]; [] ];
    bus "opb" ~cycle:1
      "OPB_Select held across back-to-back accesses (the OPB has no bursts)"
      [ write_word @ [ done_ true ]; [ done_ false ] ];
  ]
  @ bus_rules "plb" ~wr_ack:None
      ~rd_ack:
        (Some "PLB_RdAck asserted with no read in flight (dataAck before addrAck)")
      ~stable_fid:
        (Some "PLB_RdCE/PLB_WrCE one-hot select changed mid-transaction")
      ~stable_data:(Some "PLB_DataIn changed before the acknowledge (Fig 4.5)")
  @ bus_rules "opb"
      ~wr_ack:(Some "Sln_XferAck asserted with no OPB transfer in flight")
      ~rd_ack:(Some "Sln_DBus driven valid with no OPB read in flight")
      ~stable_fid:(Some "OPB_ABus changed before Sln_XferAck")
      ~stable_data:None
  @ bus_rules "fcb"
      ~wr_ack:(Some "FCB_Done asserted with no decoded opcode in flight")
      ~rd_ack:(Some "FCB_RdData valid with no decoded load opcode in flight")
      ~stable_fid:
        (Some
           "FCB_Reg (the opcode's register field) changed while an opcode is \
            outstanding")
      ~stable_data:(Some "FCB_WrData changed before FCB_Done")
  @ apb_like "apb" ~rd_ack:"PRDATA strobed with no APB access in flight"
      ~single_cycle_access:
        "PENABLE held beyond the single enable phase (setup->enable phasing)"
      ~no_write_stall:
        "APB slave inserted a wait state on a write (APB transfers cannot be \
         paused)"
  @ bus_rules "ahb"
      ~wr_ack:(Some "HREADY write acknowledge with no active HTRANS beat")
      ~rd_ack:(Some "HRDATA valid with no active HTRANS beat")
      ~stable_fid:(Some "HADDR changed during a wait-stated AHB beat")
      ~stable_data:(Some "HWDATA changed during a wait-stated AHB beat")
  @ bus_rules "avalon"
      ~wr_ack:
        (Some "Avalon write completion with no av_write request in flight")
      ~rd_ack:(Some "av_readdata valid with no av_read request in flight")
      ~stable_fid:(Some "av_address changed while av_waitrequest is asserted")
      ~stable_data:
        (Some "av_writedata changed while av_waitrequest is asserted")
  @ bus_rules "wishbone"
      ~wr_ack:
        (Some "ACK_O asserted with CYC_I/STB_I negated (no cycle in progress)")
      ~rd_ack:
        (Some "DAT_O valid with CYC_I/STB_I negated (no cycle in progress)")
      ~stable_fid:(Some "ADR_I changed before ACK_O within a classic cycle")
      ~stable_data:(Some "DAT_I changed before ACK_O within a classic cycle")
  @ apb_like "axi" ~rd_ack:"bridge PRDATA strobed with no APB access in flight"
      ~single_cycle_access:
        "bridge PENABLE held beyond the single enable phase (setup->enable \
         phasing)"
      ~no_write_stall:
        "bridge inserted a wait state on a write (the APB side of the CDC \
         bridge is strictly synchronous)"
  (* a bus name with no dedicated monitor and no registered capabilities
     gets the generic, pseudo-asynchronous rule set *)
  @ bus_rules "mystery"
      ~wr_ack:(Some "write acknowledge with no write in flight")
      ~rd_ack:(Some "read data valid with no read in flight")
      ~stable_fid:
        (Some "FUNC_ID changed while a transfer is outstanding (§4.2.1)")
      ~stable_data:None

(* the generic rule set of a registered strictly synchronous bus adds the
   write-stall rule *)
let sync_bus = "pinsync"

let strict_sync_case =
  bus sync_bus ~cycle:0 "wait state on a strictly synchronous write (§4.2.2)"
    [ write_word ]

let run_case c =
  let kernel = Kernel.create () in
  let s = Sis_if.create ~bus_width:32 ~func_id_width:4 ~instances:3 () in
  (match c.monitor with
  | Sis -> Sis_monitor.attach kernel s
  | Bus b -> Bus_monitor.attach kernel ~bus:b s);
  match
    List.iter
      (fun settings ->
        List.iter (fun f -> f s) settings;
        Kernel.cycle kernel)
      c.trace
  with
  | () -> Alcotest.failf "%s: trace raised no Check_failed" c.message
  | exception Kernel.Check_failed { cycle; check; message } ->
      Signal.clear_pending ();
      Alcotest.(check string) "check" (check_name c.monitor) check;
      Alcotest.(check string) "message" c.message message;
      Alcotest.(check int) "cycle" c.cycle cycle

let with_sync_bus f =
  let module Sync = struct
    include Apb

    let caps = { Apb.caps with Bus_caps.name = sync_bus }
  end in
  Registry.register (module Sync);
  Fun.protect ~finally:(fun () -> Registry.unregister sync_bus) f

(* The decoder's reconciled rule, shared by every consumer: DATA_OUT_VALID
   (not IO_DONE) answers a read, so a read acknowledged by IO_DONE alone is
   still outstanding when the next strobe arrives. *)
let reconciled_case =
  sis ~cycle:1 "new IO_ENABLE while a read is outstanding"
    [ read_req @ [ done_ true ]; [] ]

(* -------- one decode, three consumers -------- *)

(* Run [scenarios] (default: all of Fig 9.2) on [host] with a coverage map attached, then count
   SIS word transfers three ways: completed [sis/write]/[sis/read] pairs in
   the flight recorder, the [sis/writes + sis/reads] counters, and the
   [write + read] bins of the bus's [phase] coverpoint. Word grants agree
   too: [arbiter/grants] counts the IO_DONE ticks [sis/transactions] does,
   and the per-function counters split it. With [pin], the MD5 of the
   run's metrics snapshot must equal it. *)
let agreement ?(scenarios = Interp_scenarios.all) ?pin name host =
  let bus = (Host.spec host).Spec.bus_name in
  let c = Cover.create () in
  Bus_cover.attach c ~bus ~caps:(Registry.lookup_caps bus) (Host.kernel host)
    (Host.sis host);
  List.iter (fun s -> ignore (Interpolator.run host s)) scenarios;
  let obs = Host.obs host in
  let r = Option.get (Obs.recorder obs) in
  Alcotest.(check bool)
    (name ^ ": recorder kept every event")
    true
    (Recorder.total r <= Recorder.capacity r);
  let pairs =
    List.length
      (List.filter
         (fun ((ev : Query.event), _) ->
           ev.Query.ev_subject = "sis/write" || ev.Query.ev_subject = "sis/read")
         (Query.transactions (Query.of_recorder r)))
  in
  let m = Obs.metrics obs in
  let counted =
    Metrics.counter_value m "sis/writes" + Metrics.counter_value m "sis/reads"
  in
  let g = Option.get (Cover.find_group c (Bus_cover.group_name bus)) in
  let phase = Cover.bins (Option.get (Cover.find_point g "phase")) in
  let covered = List.assoc "write" phase + List.assoc "read" phase in
  Alcotest.(check bool) (name ^ ": transfers seen") true (pairs > 0);
  Alcotest.(check int) (name ^ ": counters = recorder pairs") pairs counted;
  Alcotest.(check int) (name ^ ": phase bins = recorder pairs") pairs covered;
  let grants = Metrics.counter_value m "arbiter/grants" in
  Alcotest.(check bool) (name ^ ": grants seen") true (grants > 0);
  Alcotest.(check int)
    (name ^ ": arbiter/grants = sis/transactions")
    (Metrics.counter_value m "sis/transactions")
    grants;
  let per_id =
    List.fold_left
      (fun acc c ->
        if String.starts_with ~prefix:"arbiter/grants/" (Metrics.counter_name c)
        then acc + Metrics.count c
        else acc)
      0 (Metrics.counters m)
  in
  Alcotest.(check int) (name ^ ": sum of arbiter/grants/<id>") grants per_id;
  Option.iter
    (fun pin ->
      Alcotest.(check string)
        (name ^ ": metrics snapshot digest")
        pin
        (Digest.to_hex
           (Digest.string (Json.to_string (Recorder.metrics_json m)))))
    pin

(* MD5 of [Recorder.metrics_json] after scenario 1 on [make_host_on_bus]:
   every sim/sis/arbiter/bus/driver value of the run, pinned per bus *)
let metrics_pins =
  [
    ("plb", "584cedd689c3694c4f7425600a6dce77");
    ("opb", "d574391af9c84203d33b8b969a5c7455");
    ("fcb", "a0e8e12607187704372516b4e16c00a2");
    ("apb", "4bb43a996e03bb514f183f9fb4abdfdb");
    ("ahb", "30c31f3304c053760060f1b5a1c9e89c");
    ("wishbone", "dce8da6856100d4a23b4a5b1a1a18222");
    ("avalon", "f0897720e8e11868644d411e0939bdcc");
    ("axi", "51af791d1450aeae7084b42c3d8b79f0");
  ]

let agreement_tests =
  List.map
    (fun impl ->
      let name = Interpolator.impl_name impl in
      Alcotest.test_case name `Quick (fun () ->
          agreement name (Interpolator.make_host impl)))
    Interpolator.all_impls
  (* every registered bus, the AXI bridge's slow SIS domain included, on
     one scenario (the whole grid overflows the AXI host's ring) *)
  @ List.map
      (fun bus ->
        Alcotest.test_case ("interpolator on " ^ bus) `Quick (fun () ->
            agreement
              ~scenarios:[ Interp_scenarios.by_id 1 ]
              ?pin:(List.assoc_opt bus metrics_pins)
              bus
              (Interpolator.make_host_on_bus bus)))
      (Registry.names ())

let tests =
  [
    ( "protocol.pinned",
      List.mapi
        (fun i c ->
          Alcotest.test_case
            (Printf.sprintf "%02d %s: %s" i (check_name c.monitor) c.message)
            `Quick
            (fun () -> run_case c))
        cases
      @ [
          Alcotest.test_case "generic strictly synchronous write stall" `Quick
            (fun () -> with_sync_bus (fun () -> run_case strict_sync_case));
        ] );
    ( "protocol.decoder",
      [
        Alcotest.test_case "a read is answered by DATA_OUT_VALID only" `Quick
          (fun () -> run_case reconciled_case);
      ] );
    ("protocol.agreement", agreement_tests);
  ]
