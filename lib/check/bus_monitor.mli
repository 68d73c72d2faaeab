(** Per-bus protocol assertion monitors (the native-bus counterpart of
    {!Splice_sis.Sis_monitor}).

    Each supported bus gets a cycle-by-cycle checker registered through
    {!Splice_sim.Kernel.add_check_in} under the name ["<bus>-protocol"], in
    the bus's SIS-side domain ({!Splice_sis.Sis_if.domain}). A bus's
    rules are a table of messages (data); the checker evaluates each as a
    predicate over the interface's {!Splice_sis.Sis_if.decoder} — the SIS
    lines seen through the bus's combinational adapter mapping (the native
    mirrors of Figs 4.5–4.8) — and raises {!Splice_sim.Kernel.Check_failed}
    on a handshake-axiom violation, e.g.:

    - {b PLB}: a data acknowledge ([PLB_RdAck]/[PLB_WrAck]) with no request
      outstanding — the addrAck-before-dataAck ordering;
    - {b OPB}: [Sln_XferAck] held for two consecutive cycles (the
      single-cycle acknowledge rule), or back-to-back selects (no bursts);
    - {b FCB}: [FCB_Done] with no decoded opcode in flight, or the register
      field changing mid-opcode;
    - {b APB}: an access held beyond the single enable phase (setup→enable
      phasing), or a slave wait state on a write (APB transfers cannot be
      paused);
    - {b AHB}: [HADDR]/[HWDATA] changing during a wait-stated beat;
    - {b Avalon}: address/writedata changing while [av_waitrequest] stalls
      the master;
    - {b Wishbone}: [ACK_O] with [CYC_I]/[STB_I] negated (no classic cycle
      in progress);
    - {b AXI}: the APB axioms on the bridge's SIS side (gated to the
      peripheral clock domain). The native channels are not watched here:
      the bridge registers its own ["axi-channels"] check at ACLK edges
      whenever it is built with monitors on (see {!Splice_buses.Axi}).

    Buses registered by users without a dedicated monitor get a generic
    checker derived from their {!Splice_syntax.Bus_caps.t}. *)

open Splice_sim
open Splice_sis

val supported : string list
(** Buses with a dedicated (non-generic) monitor. *)

val attach : Kernel.t -> bus:string -> Sis_if.t -> unit
(** Attach the monitor for [bus] (dedicated if {!supported}, generic
    otherwise). The check name is ["<bus>-protocol"]. *)
