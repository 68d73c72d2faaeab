(** The interface every supported bus provides — the OCaml rendering of the
    "native bus adapter library" of Ch 7. A bus contributes:

    - {b capabilities} the validator checks specs against (§3.2);
    - an {b engine configuration} giving its cycle-accurate protocol costs;
    - an {b HDL adapter template} with [%MARKER%] macros, consumed by
      [Codegen.Busgen] (§5.1, §7.1.1) plus any bus-specific markers
      (§7.1.2 "marker loader routine");
    - a {b driver macro header} — the [splice_lib.h] of Fig 8.7 — defining
      the transaction macros of Fig 7.2 (§7.1.3);
    - a {b connect} function instantiating the simulation model.

    Everything a simulation model is elaborated from reaches it as an
    argument of [connect]: the spec, and the three build inputs the host
    passes through from [Host.create] — the coverage map,
    the clock-domain-crossing configuration and whether protocol monitors
    are on. No bus reads a build input from anywhere else. *)

open Splice_sim
open Splice_sis
open Splice_syntax

type cdc = { ratio : int * int; depth : int }
(** Clock-domain-crossing configuration of a bus with a second clock
    domain (the AXI4-Lite bridge): [ratio] is the ACLK:PCLK frequency
    ratio, [depth] the command/response FIFO depth. These are simulation
    parameters, not spec syntax; single-clock buses ignore them. *)

val default_cdc : cdc
(** 3:1, depth 4 — what a host elaborates with unless told otherwise,
    and the depth the generated AXI adapter's [C_FIFO_DEPTH] defaults
    to. *)

module type S = sig
  val caps : Bus_caps.t
  val engine_config : Adapter_engine.config

  val wait_mode : [ `Null | `Poll ]
  (** [`Poll] for strictly synchronous interfaces (§6.1.1). *)

  val adapter_template : string
  (** VHDL template for the native interface adapter. *)

  val extra_markers : (string * (Spec.t -> string)) list
  (** Bus-specific template markers beyond the standard set of Fig 7.1. *)

  val driver_header : Spec.t -> string
  (** Contents of this bus's [splice_lib.h]. *)

  val check_params : Spec.t -> (unit, string list) result
  (** The bus's own "parameter checking routine" (§7.1.2), run in addition
      to the capability checks derived from [caps]. *)

  val connect :
    cover:Splice_cover.Cover.t option ->
    cdc:cdc ->
    monitor:bool ->
    Kernel.t ->
    Spec.t ->
    Sis_if.t ->
    Bus_port.t
  (** Instantiate the simulation model in [kernel]. [cover]: the map the
      model's transaction-level coverpoints sample into (its bus group is
      declared first, see {!Splice_cover.Bus_cover.declare}); [cdc]: the
      crossing configuration; [monitor]: register the model's own native
      protocol checks, if it has any. *)
end

val connect_with_engine :
  Adapter_engine.config ->
  Bus_caps.t ->
  [ `Null | `Poll ] ->
  cover:Splice_cover.Cover.t option ->
  cdc:cdc ->
  monitor:bool ->
  Kernel.t ->
  Spec.t ->
  Sis_if.t ->
  Bus_port.t
(** Shared [connect] implementation: builds an {!Adapter_engine} (passing
    [cover] on to {!Adapter_engine.make}), registers its component, returns
    the port. A single-clock engine bus has no crossing and no native
    checks of its own, so [cdc] and [monitor] are ignored. *)

val name : (module S) -> string
