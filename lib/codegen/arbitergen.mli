(** Arbitration unit generation (§5.2): the [user_<device>] HDL file that
    instantiates every function instance, multiplexes the shared
    [DATA_OUT] / [DATA_OUT_VALID] / [IO_DONE] signals by [FUNC_ID], and
    concatenates the per-instance [CALC_DONE] bits into the status vector
    the adapter serves at id 0. Multi-instance functions get one
    instantiation per copy, with consecutive identifiers (§5.2). *)

open Splice_syntax
open Splice_hdl

val design : Spec.t -> Hdl_ast.design
val generate : Spec.t -> string
val file_name : Spec.t -> string  (** [user_<device>.vhd] (Fig 8.3) *)
