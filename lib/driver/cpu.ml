open Splice_sim
open Splice_buses
open Splice_bits
open Splice_obs

type state =
  | Idle
  | Overhead of int * Op.t
      (* the edge the macro issues on, after [issue_overhead] edges of
         instruction overhead: a deadline, so a sleeping CPU skips the
         overhead edges *)
  | Wait_bus of Op.t
  | Poll_issue of int  (* func id *)
  | Poll_wait of int
  | Irq_wait of int
      (* interrupt-driven synchronisation (§10.2): the CPU sleeps (no bus
         traffic) until the completion interrupt fires, then acknowledges
         with one status read *)

type t = {
  port : Bus_port.t;
  issue_overhead : int;
  wait_mode : [ `Null | `Poll | `Irq ];
  mutable state : state;
  mutable prog : Op.t list;
  mutable reads : Bits.t list;  (* reversed *)
  mutable polls : int;
  mutable comp : Component.t;
  sleep : Sleep.t;
      (* asleep while idle, issuing overhead, or waiting on the port —
         which wakes it when [busy] falls or [irq_pending] rises *)
  obs : Obs.t;
  m_ops : Metrics.counter;
  m_polls : Metrics.counter;
  m_overhead : Metrics.counter;
  m_op : Metrics.counter option array;
      (* [driver/op/<kind>], indexed by [op_index], registered on first
         use *)
}

let op_kinds =
  [|
    "set_address"; "write_single"; "write_double"; "write_quad";
    "write_burst"; "read_single"; "read_double"; "read_quad"; "read_burst";
    "write_dma"; "read_dma"; "wait_for_results";
  |]

let op_index = function
  | Op.Set_address _ -> 0
  | Op.Write_single _ -> 1
  | Op.Write_double _ -> 2
  | Op.Write_quad _ -> 3
  | Op.Write_burst _ -> 4
  | Op.Read_single _ -> 5
  | Op.Read_double _ -> 6
  | Op.Read_quad _ -> 7
  | Op.Read_burst _ -> 8
  | Op.Write_dma _ -> 9
  | Op.Read_dma _ -> 10
  | Op.Wait_for_results _ -> 11

let op_counter t op =
  let i = op_index op in
  match t.m_op.(i) with
  | Some c -> c
  | None ->
      let name = "driver/op/" ^ op_kinds.(i) in
      let c = Metrics.counter (Obs.metrics t.obs) name in
      t.m_op.(i) <- Some c;
      c

(* [first]: the edge of the CPU's next step — the one after the current
   edge from inside [seq], the next edge from [load] *)
let next_op t ~first =
  match t.prog with
  | [] ->
      t.state <- Idle;
      Sleep.sleep t.sleep
  | op :: rest ->
      t.prog <- rest;
      let issue = first + t.issue_overhead in
      t.state <- Overhead (issue, op);
      Sleep.sleep_until t.sleep issue

(* a step that moves on to the next macro *)
let step_next t = next_op t ~first:(Sleep.now t.sleep + 1)

(* waiting on the port: nothing to do until it goes idle *)
let wait_port t = if t.port.Bus_port.busy () then Sleep.sleep t.sleep

let req_of_op op =
  let id = Op.func_id op in
  match op with
  | Op.Write_single (_, w) -> Some (Bus_port.Write { func_id = id; data = [ w ] })
  | Op.Write_double (_, ws) | Op.Write_quad (_, ws) | Op.Write_burst (_, ws) ->
      Some (Bus_port.Write { func_id = id; data = ws })
  | Op.Read_single _ -> Some (Bus_port.Read { func_id = id; words = 1 })
  | Op.Read_double _ -> Some (Bus_port.Read { func_id = id; words = 2 })
  | Op.Read_quad _ -> Some (Bus_port.Read { func_id = id; words = 4 })
  | Op.Read_burst (_, n) -> Some (Bus_port.Read { func_id = id; words = n })
  | Op.Write_dma (_, ws) -> Some (Bus_port.Dma_write { func_id = id; data = ws })
  | Op.Read_dma (_, n) -> Some (Bus_port.Dma_read { func_id = id; words = n })
  | Op.Set_address _ | Op.Wait_for_results _ -> None

let issue t op =
  if Obs.active t.obs then begin
    Metrics.incr t.m_ops;
    Metrics.incr (op_counter t op)
  end;
  match op with
  | Op.Set_address _ -> step_next t
  | Op.Wait_for_results id -> (
      match t.wait_mode with
      | `Null -> step_next t
      | `Poll -> t.state <- Poll_issue id
      | `Irq ->
          t.state <- Irq_wait id;
          if not (t.port.Bus_port.irq_pending ()) then Sleep.sleep t.sleep)
  | op -> (
      match req_of_op op with
      | Some req ->
          t.port.Bus_port.submit req;
          t.state <- Wait_bus op;
          wait_port t
      | None -> step_next t)

let seq t () =
  match t.state with
  | Idle -> Sleep.sleep t.sleep
  | Overhead (at, op) ->
      if Sleep.now t.sleep >= at then issue t op
      else begin
        if Obs.active t.obs then Metrics.incr t.m_overhead;
        Sleep.sleep_until t.sleep at
      end
  | Wait_bus op ->
      if not (t.port.Bus_port.busy ()) then begin
        if Bus_port.is_read (match req_of_op op with Some r -> r | None -> assert false)
        then
          t.reads <- List.rev_append (t.port.Bus_port.result ()) t.reads;
        step_next t
      end
      else Sleep.sleep t.sleep
  | Poll_issue id ->
      t.polls <- t.polls + 1;
      if Obs.active t.obs then Metrics.incr t.m_polls;
      t.port.Bus_port.submit (Bus_port.Read { func_id = 0; words = 1 });
      t.state <- Poll_wait id;
      wait_port t
  | Poll_wait id ->
      if not (t.port.Bus_port.busy ()) then begin
        let status =
          match t.port.Bus_port.result () with
          | [ v ] -> v
          | _ -> Bits.zero 1
        in
        let bit = id - 1 in
        let done_ = bit < Bits.width status && Bits.bit status bit in
        if done_ then step_next t
        else
          (* in interrupt mode, a status read that finds our bit clear
             means the IRQ belonged to another function: sleep again *)
          match t.wait_mode with
          | `Irq ->
              t.state <- Irq_wait id;
              if not (t.port.Bus_port.irq_pending ()) then Sleep.sleep t.sleep
          | _ -> t.state <- Poll_issue id
      end
      else Sleep.sleep t.sleep
  | Irq_wait id ->
      (* no bus traffic while sleeping; the status read doubles as the
         interrupt acknowledge (it clears the adapter's IRQ latch) *)
      if t.port.Bus_port.irq_pending () then begin
        t.polls <- t.polls + 1;
        if Obs.active t.obs then Metrics.incr t.m_polls;
        t.port.Bus_port.submit (Bus_port.Read { func_id = 0; words = 1 });
        t.state <- Poll_wait id;
        wait_port t
      end
      else Sleep.sleep t.sleep

let make ?(obs = Obs.none) ?(issue_overhead = 1) ?wait_mode port =
  let wait_mode =
    match wait_mode with
    | Some m -> m
    | None -> (port.Bus_port.wait_mode :> [ `Null | `Poll | `Irq ])
  in
  let m = Obs.metrics obs in
  let sleep = Sleep.create () in
  port.Bus_port.watch sleep;
  let t =
    {
      port;
      issue_overhead;
      wait_mode;
      state = Idle;
      prog = [];
      reads = [];
      polls = 0;
      comp = Component.make "cpu";
      sleep;
      obs;
      m_ops = Metrics.counter m "driver/ops";
      m_polls = Metrics.counter m "driver/polls";
      m_overhead = Metrics.counter m "driver/overhead_cycles";
      m_op = Array.make (Array.length op_kinds) None;
    }
  in
  t.comp <-
    Component.make ~seq:(seq t) ~sleep
      ~reset:(fun () ->
        t.state <- Idle;
        t.prog <- [];
        t.reads <- [];
        t.polls <- 0)
      ("cpu:" ^ port.Bus_port.bus_name);
  t

let component t = t.comp

let running t = match t.state with Idle -> false | _ -> true

let load t prog =
  if running t then failwith "Cpu.load: already running";
  t.prog <- prog;
  t.reads <- [];
  t.polls <- 0;
  next_op t ~first:(Sleep.now t.sleep)

let read_data t = List.rev t.reads
let polls t = t.polls

let run_program ?(max_cycles = 1_000_000) kernel t prog =
  load t prog;
  let cycles =
    Kernel.run_until ~max:max_cycles ~what:"driver program" kernel (fun () ->
        not (running t))
  in
  (read_data t, cycles)
