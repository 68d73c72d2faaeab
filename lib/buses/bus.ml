open Splice_sim
open Splice_sis
open Splice_syntax

type cdc = { ratio : int * int; depth : int }

let default_cdc = { ratio = (3, 1); depth = 4 }

module type S = sig
  val caps : Bus_caps.t
  val engine_config : Adapter_engine.config
  val wait_mode : [ `Null | `Poll ]
  val adapter_template : string
  val extra_markers : (string * (Spec.t -> string)) list
  val driver_header : Spec.t -> string
  val check_params : Spec.t -> (unit, string list) result

  val connect :
    cover:Splice_cover.Cover.t option ->
    cdc:cdc ->
    monitor:bool ->
    Kernel.t ->
    Spec.t ->
    Sis_if.t ->
    Bus_port.t
end

let connect_with_engine cfg (caps : Bus_caps.t) wait_mode ~cover ~cdc:_
    ~monitor:_ kernel _spec sis =
  let engine = Adapter_engine.make ~obs:(Kernel.obs kernel) ?cover cfg sis in
  Kernel.add kernel (Adapter_engine.component engine);
  Adapter_engine.port engine ~wait_mode
    ~max_burst_words:caps.Bus_caps.max_burst_words
    ~supports_dma:caps.Bus_caps.supports_dma

let name (module B : S) = B.caps.Bus_caps.name
