(** The standard template macros of Fig 7.1. *)

open Splice_syntax

val standard : ?gen_date:string -> Spec.t -> (string * string) list
(** [COMP_NAME], [BUS_WIDTH], [FUNC_ID_WIDTH], [BASE_ADDR], [GEN_DATE],
    [DMA_ENABLED]. [gen_date] defaults to the current local time; pass a
    fixed string for reproducible output. *)

val base_addr_literal : Spec.t -> string
(** VHDL hex literal for the base address ([x"..."], zeros when absent). *)
