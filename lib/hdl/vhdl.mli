(** VHDL-93 rendering of the HDL AST — the default [%target_hdl vhdl]
    output format (Fig 3.16). *)

val expr : Hdl_ast.expr -> string
(** Value-context rendering (std_logic / std_logic_vector, or integer for
    the integer sort). *)

val cond : Hdl_ast.expr -> string
(** Boolean-context rendering (1-bit refs become [x = '1']). *)

val to_string : Hdl_ast.design -> string
(** Complete design file: library clauses, entity, architecture. *)
