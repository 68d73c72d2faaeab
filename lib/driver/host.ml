open Splice_sim
open Splice_sis
open Splice_syntax
open Splice_buses
open Splice_cover
open Splice_obs

type t = {
  kernel : Kernel.t;
  spec : Spec.t;
  peripheral : Peripheral.t;
  port : Bus_port.t;
  cpu : Cpu.t;
  lean_driver : bool;
  recorder : Recorder.t option;
  call_tracks : (string * int) list;
      (* function name -> its interned "driver/<func>" recorder track,
         resolved at creation *)
  mutable signals : Signal.t list;
      (* every signal the design owns, newest first: the build's creations
         plus anything adopted afterwards (monitors) — the set a design
         cache snapshots and restores for instance reset *)
}

let create ?(monitor = true) ?issue_overhead ?(lean_driver = false) ?bus ?obs
    ?sched ?cover ?(cdc = Bus.default_cdc) (spec : Spec.t) ~behaviors =
  let (module B : Bus.S) =
    match bus with
    | Some b -> b
    | None -> (
        match Registry.find spec.bus_name with
        | Some b -> b
        | None -> failwith (Printf.sprintf "Host.create: unknown bus %S" spec.bus_name))
  in
  let bus_name = B.caps.Bus_caps.name and caps = Some B.caps in
  let t0 = Obs.now_ns () in
  let (host, created) =
    Signal.record_created (fun () ->
        let kernel = Kernel.create ?sched ?obs () in
        let peripheral = Peripheral.build ~monitor kernel spec ~behaviors in
        let sis = Peripheral.sis peripheral in
        (* the bus model resolves its transaction coverpoints at connect,
           so the bus's group must exist first *)
        Option.iter (fun c -> Bus_cover.declare c ~bus:bus_name ~caps) cover;
        let port = B.connect ~cover ~cdc ~monitor kernel spec sis in
        let wait_mode =
          if spec.Spec.interrupts && B.caps.Bus_caps.supports_interrupts then
            Some `Irq
          else None
        in
        let cpu =
          Cpu.make ~obs:(Kernel.obs kernel) ?issue_overhead ?wait_mode port
        in
        Kernel.add kernel (Cpu.component cpu);
        Option.iter
          (fun c -> Bus_cover.attach c ~bus:bus_name ~caps kernel sis)
          cover;
        let recorder = Obs.recorder (Kernel.obs kernel) in
        let call_tracks =
          match recorder with
          | None -> []
          | Some r ->
              List.map
                (fun (f : Spec.func) ->
                  (f.name, Recorder.intern r ("driver/" ^ f.name)))
                spec.funcs
        in
        {
          kernel;
          spec;
          peripheral;
          port;
          cpu;
          lean_driver;
          recorder;
          call_tracks;
          signals = [];
        })
  in
  let owner = Kernel.id host.kernel in
  Array.iter (fun s -> Signal.set_owner s ~owner) created;
  host.signals <- List.rev (Array.to_list created);
  Kernel.note_elaborate_ns host.kernel (Int64.of_int (Obs.now_ns () - t0));
  host

(* Extend the design with post-build attachments (protocol monitors):
   their signals join the owned set so instance reset restores them, and
   the elaboration clock keeps running. *)
let adopt t f =
  let t0 = Obs.now_ns () in
  let (v, created) = Signal.record_created f in
  let owner = Kernel.id t.kernel in
  Array.iter (fun s -> Signal.set_owner s ~owner) created;
  t.signals <- List.rev_append (Array.to_list created) t.signals;
  Kernel.note_elaborate_ns t.kernel (Int64.of_int (Obs.now_ns () - t0));
  v

let retire t = Signal.clear_pending_for ~owner:(Kernel.id t.kernel)

let plan_for t ~func ~args =
  match Spec.find_func t.spec func with
  | None -> raise Not_found
  | Some f -> Plan.make t.spec f ~values:(Program.values_of_args args)

let call_full ?(instance = 0) ?max_cycles t ~func ~args =
  let plan = plan_for t ~func ~args in
  let prog =
    Program.of_plan ~instance ~lean:t.lean_driver
      ~max_burst_words:t.port.Bus_port.max_burst_words
      ~supports_dma:t.port.Bus_port.supports_dma plan ~args
  in
  let record kind ~arg =
    match t.recorder with
    | Some r ->
        Recorder.record r kind ~subject:(Option.get (Spec.assoc_name func t.call_tracks)) ~arg
    | None -> ()
  in
  record Recorder.Txn_begin ~arg:(List.length prog);
  let words, cycles = Cpu.run_program ?max_cycles t.kernel t.cpu prog in
  record Recorder.Txn_end ~arg:0;
  let readbacks, _ = Program.unpack_readbacks plan words in
  (Program.unpack_result plan words, readbacks, cycles)

let call ?instance ?max_cycles t ~func ~args =
  let result, _, cycles = call_full ?instance ?max_cycles t ~func ~args in
  (result, cycles)

let kernel t = t.kernel
let spec t = t.spec
let signals t = List.rev t.signals
let obs t = Kernel.obs t.kernel

(* Attribute every simulated cycle to exactly one layer so the counters sum
   to [Kernel.cycles]: stub computation wins over bus activity (the bus may
   be parked waiting on CALC_DONE), the bus over driver issue overhead. *)
let attach_cycle_breakdown t =
  let obs = Kernel.obs t.kernel in
  let m = Obs.metrics obs in
  let c_calc = Metrics.counter m "breakdown/calc" in
  let c_bus = Metrics.counter m "breakdown/bus" in
  let c_driver = Metrics.counter m "breakdown/driver" in
  let c_idle = Metrics.counter m "breakdown/idle" in
  let stubs = Peripheral.stubs t.peripheral in
  Kernel.add_check t.kernel "cycle-breakdown" (fun _cycle ->
      if List.exists Stub_model.calculating stubs then Metrics.incr c_calc
      else if t.port.Bus_port.busy () then Metrics.incr c_bus
      else if Cpu.running t.cpu then Metrics.incr c_driver
      else Metrics.incr c_idle)
let peripheral t = t.peripheral
let port t = t.port
let cpu t = t.cpu
let sis t = Peripheral.sis t.peripheral

(* ------------------------------------------------------------------ *)
(* Instance reset (design-cache replay)                                *)
(* ------------------------------------------------------------------ *)

type reuse = {
  r_signals : Signal.t array; (* creation order, owned set frozen here *)
  r_values : Splice_bits.Bits.t array; (* their values at end of elaboration *)
}

let prepare_reuse t =
  let signals = Array.of_list (List.rev t.signals) in
  { r_signals = signals; r_values = Array.map Signal.get signals }

(* Rewind the design to its end-of-elaboration state so the next run
   replays byte-identically to a fresh build. Order matters:
   + detach the domain recorder first — reset hooks may drive signals, and
     those writes are not part of any run;
   + drop this design's leaked pending writes before the hooks re-queue
     construction-time deferred writes;
   + [Kernel.reset] restores closure state (per-component [reset] +
     [at_reset] hooks) and unseals;
   + then blast the snapshotted signal values over everything the hooks
     touched — construction-time values win, exactly the state a fresh
     build hands to its first cycle.
   The observability context is left alone: what it observes accumulates
   across runs. The kernel is left unsealed: the replay's first cycle
   seals again and, under [`Compiled], compiles the tape from the restored
   values. *)
let reset ?sched t r =
  Signal.attach_recorder None;
  Signal.clear_pending_for ~owner:(Kernel.id t.kernel);
  Kernel.reset ?sched t.kernel;
  Array.iteri (fun i s -> Signal.restore_value s r.r_values.(i)) r.r_signals
