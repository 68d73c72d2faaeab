open Splice_sim
open Splice_sis
open Splice_buses

(* What a bus's handshake axioms look like when watched through the SIS
   lines (the adapter mappings of Figs 4.5-4.8 are combinational, so every
   native-side rule has an exact SIS-side rendering). A [None] message
   disables the rule for that bus. *)
type rules = {
  check : string;  (* Kernel.add_check name, "<bus>-protocol" *)
  wr_ack_needs_req : string option;
  rd_ack_needs_req : string option;
  single_cycle_ack : string option;
  single_cycle_access : string option;
  stable_fid : string option;
  stable_data : string option;
  no_write_stall : string option;  (* strictly synchronous buses only *)
}

(* The rules as predicates over the interface's decoded tick. *)
let fire (r : rules) cycle rule cond =
  match rule with
  | Some msg when cond -> Kernel.check_fail ~cycle ~check:r.check msg
  | _ -> ()

let check_rules (r : rules) (d : Sis_if.decoder) cycle =
  if d.reset then begin
    if d.strobe then
      Kernel.check_fail ~cycle ~check:r.check "request strobed during bus reset"
  end
  else begin
    if d.write && d.fid = 0 then
      Kernel.check_fail ~cycle ~check:r.check
        "write presented to the read-only status register (FUNC_ID 0)";
    let writing = d.write || d.pending = Write in
    let reading = d.read || d.pending = Read in
    (* acknowledges may only answer a request (addrAck-before-dataAck) *)
    fire r cycle r.wr_ack_needs_req (d.word_done && not writing);
    fire r cycle r.rd_ack_needs_req (d.read_data && not reading);
    (* single-cycle acknowledge / mandatory idle phase between accesses *)
    fire r cycle r.single_cycle_ack (d.done_ && d.prev_done);
    fire r cycle r.single_cycle_access (d.strobe && d.prev_strobe);
    (* qualifier stability while a transfer is wait-stated *)
    fire r cycle r.stable_fid (d.pending <> Idle && d.fid <> d.held_fid);
    fire r cycle r.stable_data d.data_moved;
    (* strictly synchronous transfers cannot be paused by the slave *)
    fire r cycle r.no_write_stall (d.write && d.fid <> 0 && not d.done_)
  end

let no_rules name =
  {
    check = name ^ "-protocol";
    wr_ack_needs_req = None;
    rd_ack_needs_req = None;
    single_cycle_ack = None;
    single_cycle_access = None;
    stable_fid = None;
    stable_data = None;
    no_write_stall = None;
  }

let plb_rules =
  {
    (no_rules "plb") with
    wr_ack_needs_req =
      Some "PLB_WrAck asserted with no write in flight (dataAck before addrAck)";
    rd_ack_needs_req =
      Some "PLB_RdAck asserted with no read in flight (dataAck before addrAck)";
    stable_fid = Some "PLB_RdCE/PLB_WrCE one-hot select changed mid-transaction";
    stable_data = Some "PLB_DataIn changed before the acknowledge (Fig 4.5)";
  }

let opb_rules =
  {
    (no_rules "opb") with
    wr_ack_needs_req = Some "Sln_XferAck asserted with no OPB transfer in flight";
    rd_ack_needs_req = Some "Sln_DBus driven valid with no OPB read in flight";
    single_cycle_ack =
      Some "Sln_XferAck held for consecutive cycles (xferAck is a single-cycle strobe)";
    single_cycle_access =
      Some "OPB_Select held across back-to-back accesses (the OPB has no bursts)";
    stable_fid = Some "OPB_ABus changed before Sln_XferAck";
  }

let fcb_rules =
  {
    (no_rules "fcb") with
    wr_ack_needs_req = Some "FCB_Done asserted with no decoded opcode in flight";
    rd_ack_needs_req = Some "FCB_RdData valid with no decoded load opcode in flight";
    stable_fid =
      Some "FCB_Reg (the opcode's register field) changed while an opcode is outstanding";
    stable_data = Some "FCB_WrData changed before FCB_Done";
  }

let apb_rules =
  {
    (no_rules "apb") with
    rd_ack_needs_req = Some "PRDATA strobed with no APB access in flight";
    single_cycle_access =
      Some "PENABLE held beyond the single enable phase (setup->enable phasing)";
    no_write_stall =
      Some "APB slave inserted a wait state on a write (APB transfers cannot be paused)";
  }

let ahb_rules =
  {
    (no_rules "ahb") with
    wr_ack_needs_req = Some "HREADY write acknowledge with no active HTRANS beat";
    rd_ack_needs_req = Some "HRDATA valid with no active HTRANS beat";
    stable_fid = Some "HADDR changed during a wait-stated AHB beat";
    stable_data = Some "HWDATA changed during a wait-stated AHB beat";
  }

let avalon_rules =
  {
    (no_rules "avalon") with
    wr_ack_needs_req = Some "Avalon write completion with no av_write request in flight";
    rd_ack_needs_req = Some "av_readdata valid with no av_read request in flight";
    stable_fid = Some "av_address changed while av_waitrequest is asserted";
    stable_data = Some "av_writedata changed while av_waitrequest is asserted";
  }

let wishbone_rules =
  {
    (no_rules "wishbone") with
    wr_ack_needs_req = Some "ACK_O asserted with CYC_I/STB_I negated (no cycle in progress)";
    rd_ack_needs_req = Some "DAT_O valid with CYC_I/STB_I negated (no cycle in progress)";
    stable_fid = Some "ADR_I changed before ACK_O within a classic cycle";
    stable_data = Some "DAT_I changed before ACK_O within a classic cycle";
  }

let axi_rules =
  (* the SIS-facing half of the AXI4-Lite bridge is its APB engine, so the
     SIS axioms are the APB's; the native AXI channels are checked by the
     bridge itself ("axi-channels", registered by [Axi.connect]) *)
  {
    (no_rules "axi") with
    rd_ack_needs_req =
      Some "bridge PRDATA strobed with no APB access in flight";
    single_cycle_access =
      Some
        "bridge PENABLE held beyond the single enable phase (setup->enable \
         phasing)";
    no_write_stall =
      Some
        "bridge inserted a wait state on a write (the APB side of the CDC \
         bridge is strictly synchronous)";
  }

let dedicated =
  [
    ("plb", plb_rules); ("opb", opb_rules); ("fcb", fcb_rules);
    ("apb", apb_rules); ("ahb", ahb_rules); ("avalon", avalon_rules);
    ("wishbone", wishbone_rules); ("axi", axi_rules);
  ]

let supported = List.map fst dedicated

(* User-registered buses without a dedicated monitor still get the axioms
   every SIS adapter must satisfy, flavoured by the bus's capabilities. *)
let generic_rules name (caps : Splice_syntax.Bus_caps.t option) =
  let strictly_sync =
    match caps with Some c -> not c.Splice_syntax.Bus_caps.pseudo_async | None -> false
  in
  {
    (no_rules name) with
    wr_ack_needs_req = Some "write acknowledge with no write in flight";
    rd_ack_needs_req = Some "read data valid with no read in flight";
    stable_fid = Some "FUNC_ID changed while a transfer is outstanding (§4.2.1)";
    no_write_stall =
      (if strictly_sync then
         Some "wait state on a strictly synchronous write (§4.2.2)"
       else None);
  }

let rules_for name =
  match List.assoc_opt name dedicated with
  | Some r -> r
  | None -> generic_rules name (Registry.lookup_caps name)

let attach kernel ~bus sis =
  let r = rules_for bus in
  Sis_if.watch kernel sis;
  (* a CDC bus's SIS side lives in its peripheral clock domain, so
     "previous cycle" means the previous PCLK edge *)
  let sleep = Sleep.create () in
  Kernel.add_check_in ~sleep kernel (Sis_if.domain kernel ~bus) r.check
    (fun cycle ->
      let d = Sis_if.decode sis cycle in
      check_rules r d cycle;
      Sis_if.nap sleep d)
