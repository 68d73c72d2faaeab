(** User-logic stub generation (§5.3): one HDL file per declared function,
    containing the ICOB (a clocked process stepping through input →
    calculation → output states, handling all SIS signalling) and the SMB
    (the state-update process), plus the tracking registers and comparators
    that packed / split / array transfers require (§5.3.1).

    Calculation logic is deliberately {e not} inferred — the CALC state
    carries a TODO comment for the user to fill in, which is the design
    point distinguishing Splice from Handel-C / SystemC (§2.4.3). *)

open Splice_syntax
open Splice_hdl

val state_names : Spec.func -> string list
(** ICOB state encoding, in order: one [IN_<param>] per input ([IN_TRIGGER]
    when there are none), [CALC], and [OUT_RESULT] when the function returns
    a value or blocks (§5.3.1 pseudo output state). *)

val design : Spec.t -> Spec.func -> Hdl_ast.design
val generate : Spec.t -> Spec.func -> string
(** Rendered in the spec's [%target_hdl] language. *)

val file_name : Spec.t -> Spec.func -> string
(** [func_<name>.vhd] (Fig 8.3) or [func_<name>.v]. *)
