(* AXI4-Lite front end bridged onto the strictly synchronous APB engine
   across Gray-coded asynchronous FIFOs.

   Structure follows the classic AXI4-Lite-to-APB CDC bridge: an AXI4-Lite
   slave FSM in the fast bus clock domain (ACLK) accepts AW/W and AR
   transfers and pushes {addr, data} command words into dual-clock FIFOs;
   a bridge FSM in the peripheral clock domain (PCLK) pops commands,
   replays them as one-word transactions on the existing APB adapter
   engine, and pushes B/R responses back through response FIFOs; the slave
   pops those to drive BVALID/RVALID. All four FIFOs use Gray-coded
   pointers with two-flop synchronizers (see [Async_fifo]), so the
   crossing is correct at any rational ACLK:PCLK ratio and the command
   FIFO's [full] backpressure surfaces as withheld AWREADY/ARREADY.

   The PCLK side is byte-for-byte the APB model: strictly synchronous
   single-word transfers, CALC_DONE polled at function id 0, so Splice
   drivers for the AXI target poll exactly as they do on the APB. *)

open Splice_sim
open Splice_syntax
open Splice_bits

let caps =
  {
    Bus_caps.name = "axi";
    widths = [ 32 ];
    memory_mapped = true;
    (* AXI4-Lite carries no native bursts, but the master pipelines the
       words of one driver request back-to-back into the command FIFO —
       one address per transfer, no per-word driver overhead — which is
       what WRITE_DOUBLE/QUAD compile to *)
    supports_burst = true;
    supports_dma = false;
    max_burst_words = 4;
    dma_max_bytes = 0;
    pseudo_async = false;
    supports_interrupts = true;
  }

let engine_config =
  {
    Adapter_engine.name = "axi";
    (* the PCLK half reuses the APB phase costs (setup + enable) *)
    setup_cycles = 2;
    write_word_gap = 1;
    read_word_gap = 1;
    teardown_cycles = 0;
    strictly_sync = true;
    dma_setup_transactions = 0;
  }

let wait_mode = `Poll
let check_params _ = Ok ()

(* ---- CDC configuration ---------------------------------------------
   Clock ratio and FIFO depth are simulation parameters, not spec syntax:
   they arrive as [connect]'s [~cdc] argument ([Bus.cdc]), which the
   fuzzer draws per iteration and the CLI pins. *)

(* the generator's universe; also the coverage bins in [Bus_cover] *)
let ratios_all = [ (1, 1); (2, 1); (3, 1); (3, 2); (5, 2) ]
let depths_all = [ 2; 4; 8; 16 ]

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* reduced tick periods for a fast:slow frequency ratio — period is the
   reciprocal of frequency on the common grid *)
let periods (a, b) =
  if a < 1 || b < 1 then invalid_arg "Axi: clock ratio terms must be >= 1";
  let g = gcd a b in
  (b / g, a / g) (* (aclk period, pclk period) *)

let reduce (a, b) =
  let g = gcd a b in
  (a / g, b / g)

(* ---- native channels ------------------------------------------------ *)

module Native = struct
  type t = {
    awvalid : Signal.t;
    awready : Signal.t;
    awaddr : Signal.t;
    wvalid : Signal.t;
    wready : Signal.t;
    wdata : Signal.t;
    bvalid : Signal.t;
    bready : Signal.t;
    bresp : Signal.t;
    arvalid : Signal.t;
    arready : Signal.t;
    araddr : Signal.t;
    rvalid : Signal.t;
    rready : Signal.t;
    rdata : Signal.t;
    rresp : Signal.t;
  }

  let create ~width =
    let s n w = Signal.create ~name:("axi." ^ n) w in
    {
      awvalid = s "AWVALID" 1;
      awready = s "AWREADY" 1;
      awaddr = s "AWADDR" 32;
      wvalid = s "WVALID" 1;
      wready = s "WREADY" 1;
      wdata = s "WDATA" width;
      bvalid = s "BVALID" 1;
      bready = s "BREADY" 1;
      bresp = s "BRESP" 2;
      arvalid = s "ARVALID" 1;
      arready = s "ARREADY" 1;
      araddr = s "ARADDR" 32;
      rvalid = s "RVALID" 1;
      rready = s "RREADY" 1;
      rdata = s "RDATA" width;
      rresp = s "RRESP" 2;
    }
end

(* ---- master / slave / bridge FSMs ----------------------------------- *)

type mstate = {
  mutable pending : Bus_port.req option;
  mutable busy : bool;
  mutable wq : Bits.t list; (* write words not yet accepted *)
  mutable rq : int; (* read transfers not yet accepted *)
  mutable expect_b : int;
  mutable expect_r : int;
  mutable collected : Bits.t list; (* reversed *)
}

type bphase = B_idle | B_wait_w | B_push_w | B_wait_r | B_push_r

let okay = Bits.zero 2

(* ---- native-channel protocol check -----------------------------------
   AXI4-Lite channel axioms, checked at ACLK edges: once VALID is asserted
   it must hold, with stable payload, until the READY handshake (A3.2.1 of
   the AMBA spec); responses may not outnumber the accepted requests they
   answer; AXI4-Lite slaves only ever answer OKAY here (no decode errors
   inside the bridge's own address window). The bridge registers it
   itself, as [Peripheral.build] does the SIS monitor. *)

type chan_st = {
  c_name : string;
  c_valid : Signal.t;
  c_ready : Signal.t;
  c_payload : Signal.t;
  mutable p_valid : bool;
  mutable p_ready : bool;
  mutable p_payload : Bits.t; (* meaningful only while [p_valid] *)
  mutable fired : int;
}

let channel_check = "axi-channels"

let channel_fail ~cycle fmt =
  Format.kasprintf
    (fun message -> Kernel.check_fail ~cycle ~check:channel_check message)
    fmt

(* one channel's edge: a top-level function over the channel's own record,
   so the check allocates nothing on an ACLK edge that passes *)
let channel_step cycle st =
  let v = Signal.get_bool st.c_valid and rdy = Signal.get_bool st.c_ready in
  let pl = Signal.get st.c_payload in
  if st.p_valid && not st.p_ready then begin
    if not v then
      channel_fail ~cycle
        "%sVALID dropped before %sREADY (VALID must hold until the \
         handshake)" st.c_name st.c_name;
    if not (Bits.equal st.p_payload pl) then
      channel_fail ~cycle "%s payload changed while VALID was waiting for READY"
        st.c_name
  end;
  if v && rdy then st.fired <- st.fired + 1;
  st.p_valid <- v;
  st.p_ready <- rdy;
  (* a payload that did not move is the same value: no write barrier *)
  if st.p_payload != pl then st.p_payload <- pl

let attach_channel_check kernel aclk (nat : Native.t) =
  let mk c_name c_valid c_ready c_payload =
    { c_name; c_valid; c_ready; c_payload; p_valid = false; p_ready = false;
      p_payload = Signal.get c_payload; fired = 0 }
  in
  let aw = mk "AW" nat.awvalid nat.awready nat.awaddr in
  let w = mk "W" nat.wvalid nat.wready nat.wdata in
  let ar = mk "AR" nat.arvalid nat.arready nat.araddr in
  let r_ = mk "R" nat.rvalid nat.rready nat.rdata in
  let b = mk "B" nat.bvalid nat.bready nat.bresp in
  let clear st =
    st.p_valid <- false;
    st.p_ready <- false;
    st.fired <- 0
  in
  Kernel.at_reset kernel (fun () -> List.iter clear [ aw; w; ar; r_; b ]);
  Kernel.add_check_in kernel aclk channel_check (fun cycle ->
      channel_step cycle aw;
      channel_step cycle w;
      channel_step cycle ar;
      channel_step cycle r_;
      channel_step cycle b;
      if Signal.get_bool nat.bvalid && Signal.get_int nat.bresp <> 0 then
        channel_fail ~cycle "BRESP is not OKAY";
      if Signal.get_bool nat.rvalid && Signal.get_int nat.rresp <> 0 then
        channel_fail ~cycle "RRESP is not OKAY";
      (* [b.fired > min aw.fired w.fired], without [Stdlib.min]'s
         polymorphic compare on every ACLK edge *)
      if b.fired > aw.fired || b.fired > w.fired then
        channel_fail ~cycle
          "B handshake with no outstanding write (responses outnumber \
           accepted AW/W transfers)";
      if r_.fired > ar.fired then
        channel_fail ~cycle
          "R handshake with no outstanding read (responses outnumber \
           accepted AR transfers)")

let connect ~cover ~cdc:{ Bus.ratio; depth } ~monitor kernel (spec : Spec.t)
    sis =
  let p_aclk, p_pclk = periods ratio in
  let aclk = Kernel.add_domain kernel ~name:"axi.aclk" ~period:p_aclk () in
  let pclk = Kernel.add_domain kernel ~name:"axi.pclk" ~period:p_pclk () in
  (* everything registered before the bus connects — the stubs, the
     arbiter, the SIS protocol monitor and its instrumentation — is the
     peripheral, and the peripheral lives on PCLK *)
  Kernel.rehome_all kernel pclk;
  let width = spec.Spec.bus_width in
  let base =
    Int64.logand
      (match spec.Spec.base_address with Some a -> a | None -> 0L)
      0xFFFF_FFFFL
  in
  let addr_of fid =
    Bits.create ~width:32 (Int64.add base (Int64.of_int (4 * fid)))
  in
  let fid_of addr =
    Int64.to_int
      (Int64.div
         (Int64.logand (Int64.sub (Bits.to_int64 addr) base) 0xFFFF_FFFFL)
         4L)
  in
  (* PCLK side: the APB engine, verbatim *)
  let engine =
    Adapter_engine.make ~obs:(Kernel.obs kernel) ?cover engine_config sis
  in
  Kernel.add_in kernel pclk (Adapter_engine.component engine);
  let eport =
    Adapter_engine.port engine ~wait_mode ~max_burst_words:1
      ~supports_dma:false
  in
  let nat = Native.create ~width in
  let fifo n ~wr_dom ~rd_dom ~width =
    Async_fifo.create ~name:("axi." ^ n) kernel ~wr_dom ~rd_dom ~depth ~width
  in
  let wcmd = fifo "wcmd" ~wr_dom:aclk ~rd_dom:pclk ~width:(32 + width) in
  let rcmd = fifo "rcmd" ~wr_dom:aclk ~rd_dom:pclk ~width:32 in
  let wrsp = fifo "wrsp" ~wr_dom:pclk ~rd_dom:aclk ~width:2 in
  let rrsp = fifo "rrsp" ~wr_dom:pclk ~rd_dom:aclk ~width in
  (* a single-edge pulse on a FIFO strobe: asserted by one edge's seq,
     consumed by the FIFO at the next edge, dropped by this helper there *)
  let clear_pulse s = if Signal.get_bool s then Signal.set_next_bool s false in
  (* a READY line (BREADY/RREADY from the master, AW/W/AR READY from the
     slave) has a single writer, so queueing it only when its value would
     change leaves every committed value as it was *)
  let drive s b = if Signal.get_bool s <> b then Signal.set_next_bool s b in
  (* ---- AXI master (ACLK): turns one Bus_port request into pipelined
     single-word channel transfers; completion = every word accepted and
     every response collected *)
  let m =
    { pending = None; busy = false; wq = []; rq = 0; expect_b = 0;
      expect_r = 0; collected = [] }
  in
  (* masters sleeping on the port ([Bus_port.watch]), woken when the
     master goes idle *)
  let waiters = ref [] in
  let idle () =
    m.busy <- false;
    List.iter Sleep.wake !waiters
  in
  let master_seq () =
    drive nat.Native.bready true;
    drive nat.Native.rready true;
    let fire v r = Signal.get_bool v && Signal.get_bool r in
    if m.busy then begin
      if fire nat.Native.awvalid nat.Native.awready then begin
        (match m.wq with
        | _ :: rest ->
            m.wq <- rest;
            (match rest with
            | d :: _ -> Signal.set_next nat.Native.wdata d
            | [] ->
                Signal.set_next_bool nat.Native.awvalid false;
                Signal.set_next_bool nat.Native.wvalid false)
        | [] -> ())
      end;
      if fire nat.Native.bvalid nat.Native.bready then
        m.expect_b <- m.expect_b - 1;
      if fire nat.Native.arvalid nat.Native.arready then begin
        m.rq <- m.rq - 1;
        if m.rq = 0 then Signal.set_next_bool nat.Native.arvalid false
      end;
      if fire nat.Native.rvalid nat.Native.rready then begin
        m.collected <- Signal.get nat.Native.rdata :: m.collected;
        m.expect_r <- m.expect_r - 1
      end;
      if m.wq = [] && m.rq = 0 && m.expect_b = 0 && m.expect_r = 0 then idle ()
    end
    else
      match m.pending with
      | None -> ()
      | Some req ->
          m.pending <- None;
          let fid, data, words =
            match req with
            | Bus_port.Write { func_id; data }
            | Bus_port.Dma_write { func_id; data } ->
                (func_id, data, 0)
            | Bus_port.Read { func_id; words }
            | Bus_port.Dma_read { func_id; words } ->
                (func_id, [], words)
          in
          (match data with
          | d :: _ ->
              m.busy <- true;
              m.wq <- data;
              m.expect_b <- List.length data;
              Signal.set_next_bool nat.Native.awvalid true;
              Signal.set_next nat.Native.awaddr (addr_of fid);
              Signal.set_next_bool nat.Native.wvalid true;
              Signal.set_next nat.Native.wdata d
          | [] -> ());
          if words > 0 then begin
            m.busy <- true;
            m.rq <- words;
            m.expect_r <- words;
            m.collected <- [];
            Signal.set_next_bool nat.Native.arvalid true;
            Signal.set_next nat.Native.araddr (addr_of fid)
          end;
          (* a request with no word to move is done as it is taken *)
          if not m.busy then idle ()
  in
  Kernel.add_in kernel aclk
    (Component.make ~seq:master_seq
       ~reset:(fun () ->
         m.pending <- None;
         m.busy <- false;
         m.wq <- [];
         m.rq <- 0;
         m.expect_b <- 0;
         m.expect_r <- 0;
         m.collected <- [])
       "axi-master");
  (* ---- AXI slave (ACLK): accepts transfers into the command FIFOs,
     pops the response FIFOs onto B/R. READY is raised only while a slot
     is known free and no push is mid-flight, so the FIFO's conservative
     [full] is honoured with one word in the air at most *)
  let slave_seq () =
    let fire v r = Signal.get_bool v && Signal.get_bool r in
    (* write address + data (accepted together, AXI4-Lite single beat) *)
    if fire nat.Native.awvalid nat.Native.awready then begin
      Signal.set_next_bool (Async_fifo.wr_en wcmd) true;
      Signal.set_next (Async_fifo.wr_data wcmd)
        (Bits.concat (Signal.get nat.Native.awaddr)
           (Signal.get nat.Native.wdata));
      Signal.set_next_bool nat.Native.awready false;
      Signal.set_next_bool nat.Native.wready false
    end
    else begin
      clear_pulse (Async_fifo.wr_en wcmd);
      let can =
        Signal.get_bool nat.Native.awvalid
        && Signal.get_bool nat.Native.wvalid
        && (not (Signal.get_bool (Async_fifo.full wcmd)))
        && not (Signal.get_bool (Async_fifo.wr_en wcmd))
      in
      drive nat.Native.awready can;
      drive nat.Native.wready can
    end;
    (* read address *)
    if fire nat.Native.arvalid nat.Native.arready then begin
      Signal.set_next_bool (Async_fifo.wr_en rcmd) true;
      Signal.set_next (Async_fifo.wr_data rcmd) (Signal.get nat.Native.araddr);
      Signal.set_next_bool nat.Native.arready false
    end
    else begin
      clear_pulse (Async_fifo.wr_en rcmd);
      drive nat.Native.arready
        (Signal.get_bool nat.Native.arvalid
        && (not (Signal.get_bool (Async_fifo.full rcmd)))
        && not (Signal.get_bool (Async_fifo.wr_en rcmd)))
    end;
    (* write response *)
    let b_fire = fire nat.Native.bvalid nat.Native.bready in
    if b_fire then Signal.set_next_bool nat.Native.bvalid false;
    let popping_b = Signal.get_bool (Async_fifo.rd_en wrsp) in
    if popping_b then Signal.set_next_bool (Async_fifo.rd_en wrsp) false;
    if ((not (Signal.get_bool nat.Native.bvalid)) || b_fire)
       && (not popping_b)
       && not (Signal.get_bool (Async_fifo.empty wrsp))
    then begin
      Signal.set_next nat.Native.bresp (Signal.get (Async_fifo.rd_data wrsp));
      Signal.set_next_bool nat.Native.bvalid true;
      Signal.set_next_bool (Async_fifo.rd_en wrsp) true
    end;
    (* read response *)
    let r_fire = fire nat.Native.rvalid nat.Native.rready in
    if r_fire then Signal.set_next_bool nat.Native.rvalid false;
    let popping_r = Signal.get_bool (Async_fifo.rd_en rrsp) in
    if popping_r then Signal.set_next_bool (Async_fifo.rd_en rrsp) false;
    if ((not (Signal.get_bool nat.Native.rvalid)) || r_fire)
       && (not popping_r)
       && not (Signal.get_bool (Async_fifo.empty rrsp))
    then begin
      Signal.set_next nat.Native.rdata (Signal.get (Async_fifo.rd_data rrsp));
      Signal.set_next nat.Native.rresp okay;
      Signal.set_next_bool nat.Native.rvalid true;
      Signal.set_next_bool (Async_fifo.rd_en rrsp) true
    end
  in
  Kernel.add_in kernel aclk (Component.make ~seq:slave_seq "axi-slave");
  (* ---- bridge (PCLK): pop a command, replay it on the APB engine, push
     the response. The external port holds one request direction at a time
     (the CPU waits for idle), so the two command FIFOs are never
     non-empty together and need no arbiter *)
  let bst = ref B_idle in
  let bridge_seq () =
    clear_pulse (Async_fifo.rd_en wcmd);
    clear_pulse (Async_fifo.rd_en rcmd);
    clear_pulse (Async_fifo.wr_en wrsp);
    clear_pulse (Async_fifo.wr_en rrsp);
    match !bst with
    | B_idle ->
        if not (eport.Bus_port.busy ()) then
          if (not (Signal.get_bool (Async_fifo.empty wcmd)))
             && not (Signal.get_bool (Async_fifo.rd_en wcmd))
          then begin
            let w = Signal.get (Async_fifo.rd_data wcmd) in
            let addr = Bits.select w ~hi:(width + 31) ~lo:width in
            let data = Bits.select w ~hi:(width - 1) ~lo:0 in
            Signal.set_next_bool (Async_fifo.rd_en wcmd) true;
            eport.Bus_port.submit
              (Bus_port.Write { func_id = fid_of addr; data = [ data ] });
            bst := B_wait_w
          end
          else if (not (Signal.get_bool (Async_fifo.empty rcmd)))
                  && not (Signal.get_bool (Async_fifo.rd_en rcmd))
          then begin
            let addr = Signal.get (Async_fifo.rd_data rcmd) in
            Signal.set_next_bool (Async_fifo.rd_en rcmd) true;
            eport.Bus_port.submit
              (Bus_port.Read { func_id = fid_of addr; words = 1 });
            bst := B_wait_r
          end
    | B_wait_w -> if not (eport.Bus_port.busy ()) then bst := B_push_w
    | B_push_w ->
        if (not (Signal.get_bool (Async_fifo.full wrsp)))
           && not (Signal.get_bool (Async_fifo.wr_en wrsp))
        then begin
          Signal.set_next (Async_fifo.wr_data wrsp) okay;
          Signal.set_next_bool (Async_fifo.wr_en wrsp) true;
          bst := B_idle
        end
    | B_wait_r -> if not (eport.Bus_port.busy ()) then bst := B_push_r
    | B_push_r ->
        if (not (Signal.get_bool (Async_fifo.full rrsp)))
           && not (Signal.get_bool (Async_fifo.wr_en rrsp))
        then begin
          let word =
            match eport.Bus_port.result () with
            | [ w ] -> w
            | _ -> Bits.zero width
          in
          Signal.set_next (Async_fifo.wr_data rrsp) word;
          Signal.set_next_bool (Async_fifo.wr_en rrsp) true;
          bst := B_idle
        end
  in
  Kernel.add_in kernel pclk
    (Component.make ~seq:bridge_seq
       ~reset:(fun () -> bst := B_idle)
       "axi-bridge");
  (* ---- coverage (the build's map, ACLK-edge sampling) *)
  (match cover with
  | None -> ()
  | Some c -> (
      match Splice_cover.Bus_cover.find_axi c with
      | None -> ()
      | Some ax ->
          Splice_cover.Bus_cover.sample_axi_cdc ax ~ratio:(reduce ratio) ~depth;
          (* a fresh build samples the configuration bin once at connect
             time; an instance-reset replay must do the same *)
          Kernel.at_reset kernel (fun () ->
              Splice_cover.Bus_cover.sample_axi_cdc ax ~ratio:(reduce ratio)
                ~depth);
          Kernel.add_check_in kernel aclk "axi-channel-coverage" (fun _ ->
              let fire v r = Signal.get_bool v && Signal.get_bool r in
              let sample = Splice_cover.Bus_cover.sample_axi_fire ax in
              if fire nat.Native.awvalid nat.Native.awready then sample `Aw;
              if fire nat.Native.wvalid nat.Native.wready then sample `W;
              if fire nat.Native.arvalid nat.Native.arready then sample `Ar;
              if fire nat.Native.rvalid nat.Native.rready then sample `R;
              if fire nat.Native.bvalid nat.Native.bready then sample `B;
              if Signal.get_bool nat.Native.awvalid
                 && not (Signal.get_bool nat.Native.awready)
              then sample `Aw_stall;
              if Signal.get_bool nat.Native.arvalid
                 && not (Signal.get_bool nat.Native.arready)
              then sample `Ar_stall;
              if Signal.get_bool (Async_fifo.full wcmd) then sample `Bp_w;
              if Signal.get_bool (Async_fifo.full rcmd) then sample `Bp_r)));
  if monitor then attach_channel_check kernel aclk nat;
  {
    Bus_port.bus_name = "axi";
    submit =
      (fun req ->
        if m.busy || m.pending <> None then
          failwith
            (Printf.sprintf "bus axi: submit while busy (%s)"
               (Format.asprintf "%a" Bus_port.pp_req req))
        else m.pending <- Some req);
    busy = (fun () -> m.busy || m.pending <> None);
    result = (fun () -> List.rev m.collected);
    pulse_reset = eport.Bus_port.pulse_reset;
    irq_pending = eport.Bus_port.irq_pending;
    watch =
      (fun s ->
        waiters := s :: !waiters;
        (* the IRQ latch is the engine's *)
        eport.Bus_port.watch s);
    wait_mode;
    max_burst_words = caps.Bus_caps.max_burst_words;
    supports_dma = false;
  }

(* ---- generation artifacts ------------------------------------------- *)

let adapter_template =
  {|-- %COMP_NAME%: AXI4-Lite <-> SIS adapter with asynchronous APB back end
-- Generated by Splice on %GEN_DATE%
-- Base address: %BASE_ADDR%  Bus width: %BUS_WIDTH%  CDC FIFO depth: %FIFO_DEPTH%
-- Clock-domain crossing: the AXI4-Lite slave runs on ACLK, the SIS-side
-- APB master on PCLK; commands and responses cross through Gray-coded
-- dual-clock FIFOs with two-flop synchronizers, so any rational
-- ACLK:PCLK ratio is safe. Reads are strictly synchronous on the PCLK
-- side: software polls the CALC_DONE vector at function id 0 first.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity %COMP_NAME%_axi_interface is
  generic (
    C_BASEADDR   : std_logic_vector(31 downto 0) := %BASE_ADDR%;
    C_DWIDTH     : integer := %BUS_WIDTH%;
    C_FIFO_DEPTH : integer := %FIFO_DEPTH%
  );
  port (
    -- AXI4-Lite slave (ACLK domain)
    ACLK     : in  std_logic;
    ARESETn  : in  std_logic;
    AWVALID  : in  std_logic;
    AWREADY  : out std_logic;
    AWADDR   : in  std_logic_vector(31 downto 0);
    WVALID   : in  std_logic;
    WREADY   : out std_logic;
    WDATA    : in  std_logic_vector(C_DWIDTH-1 downto 0);
    BVALID   : out std_logic;
    BREADY   : in  std_logic;
    BRESP    : out std_logic_vector(1 downto 0);
    ARVALID  : in  std_logic;
    ARREADY  : out std_logic;
    ARADDR   : in  std_logic_vector(31 downto 0);
    RVALID   : out std_logic;
    RREADY   : in  std_logic;
    RDATA    : out std_logic_vector(C_DWIDTH-1 downto 0);
    RRESP    : out std_logic_vector(1 downto 0);
    -- SIS side (PCLK domain)
    PCLK               : in  std_logic;
    PRESETn            : in  std_logic;
    SIS_DATA_IN        : out std_logic_vector(C_DWIDTH-1 downto 0);
    SIS_DATA_IN_VALID  : out std_logic;
    SIS_IO_ENABLE      : out std_logic;
    SIS_FUNC_ID        : out std_logic_vector(%FUNC_ID_WIDTH%-1 downto 0);
    SIS_DATA_OUT       : in  std_logic_vector(C_DWIDTH-1 downto 0);
    SIS_DATA_OUT_VALID : in  std_logic;
    SIS_IO_DONE        : in  std_logic;
    SIS_CALC_DONE      : in  std_logic_vector(%CALC_DONE_WIDTH%-1 downto 0);
    SIS_RST            : out std_logic
  );
end entity;

architecture rtl of %COMP_NAME%_axi_interface is
  -- Gray-coded dual-clock FIFOs: write command (AWADDR & WDATA), read
  -- command (ARADDR), write response (BRESP), read response (RDATA).
  -- Pointers cross domains through 2FF synchronizers; FULL/EMPTY are
  -- derived from the synchronized (stale, therefore conservative) views.
  signal wcmd_full, wcmd_empty : std_logic;
  signal rcmd_full, rcmd_empty : std_logic;
  signal wrsp_full, wrsp_empty : std_logic;
  signal rrsp_full, rrsp_empty : std_logic;
begin
  SIS_RST <= not PRESETn;
  -- ACLK side: accept AW+W together into the write-command FIFO; AR into
  -- the read-command FIFO; READY is withheld while the FIFO is full, so
  -- the AXI fabric sees pure backpressure, never data loss.
  -- PCLK side: an APB-style master pops commands and replays them as
  -- strictly synchronous single-word SIS transfers (setup + enable), then
  -- pushes OKAY / read data into the response FIFOs.
  -- (FIFO and FSM bodies elided in the template; the simulation model in
  -- axi.ml is the reference implementation.)
end architecture;
|}

let extra_markers =
  [
    ( "CALC_DONE_WIDTH",
      fun (spec : Spec.t) -> Splice_hdl.Emit.int_to_string (max 1 spec.total_instances) );
    ("FIFO_DEPTH", fun (_ : Spec.t) -> Splice_hdl.Emit.int_to_string Bus.default_cdc.depth);
  ]

let driver_header (spec : Spec.t) =
  String.concat ""
    [
      {|/* splice_lib.h -- AXI4-Lite transaction macros for device |};
      spec.device_name;
      {|
 * The peripheral sits behind an AXI4-Lite-to-APB CDC bridge: writes and
 * reads are single-word memory-mapped transfers, and WAIT_FOR_RESULTS
 * polls the CALC_DONE status register (function id 0) because the APB
 * side is strictly synchronous (§4.2.2, §6.1.1). */
#ifndef SPLICE_LIB_AXI_H
#define SPLICE_LIB_AXI_H

#include <stdint.h>

#define SPLICE_BASE_ADDR  0x|};
      Spec.base_address_hex spec;
      {|UL
#define SET_ADDRESS(id)   (SPLICE_BASE_ADDR + ((uint32_t)(id) * 4u))
#define SPLICE_STATUS_REG SET_ADDRESS(0)

#define WRITE_SINGLE(addr, src) \
  (*(volatile uint32_t *)(addr) = *(const uint32_t *)(src))
/* back-to-back AXI4-Lite transfers pipeline into the bridge's CDC FIFO */
#define WRITE_DOUBLE(addr, src) do { \
  WRITE_SINGLE((addr), (const uint32_t *)(src));               \
  WRITE_SINGLE((addr), (const uint32_t *)(src) + 1); } while (0)
#define WRITE_QUAD(addr, src) do { \
  WRITE_DOUBLE((addr), (const uint32_t *)(src));   \
  WRITE_DOUBLE((addr), (const uint32_t *)(src) + 2); } while (0)

#define READ_SINGLE(addr, dst) \
  (*(uint32_t *)(dst) = *(volatile uint32_t *)(addr))
#define READ_DOUBLE(addr, dst) do { \
  READ_SINGLE((addr), (uint32_t *)(dst));       \
  READ_SINGLE((addr), (uint32_t *)(dst) + 1); } while (0)
#define READ_QUAD(addr, dst) do { \
  READ_DOUBLE((addr), (uint32_t *)(dst));       \
  READ_DOUBLE((addr), (uint32_t *)(dst) + 2); } while (0)

/* poll the status vector until our function's CALC_DONE bit rises */
#define WAIT_FOR_RESULTS(addr)                                           \
  do {                                                                   \
    uint32_t id = ((addr) - SPLICE_BASE_ADDR) / 4u;                      \
    while (!(*(volatile uint32_t *)SPLICE_STATUS_REG & (1u << (id - 1)))) { } \
  } while (0)

/* DMA unsupported behind the CDC bridge */

#endif /* SPLICE_LIB_AXI_H */
|};
    ]
