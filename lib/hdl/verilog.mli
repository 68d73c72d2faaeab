(** Verilog-2001 rendering of the HDL AST — the [%target_hdl verilog]
    output the thesis lists as future work (§10.2), implemented here. *)

val expr : Hdl_ast.expr -> string
val to_string : Hdl_ast.design -> string
