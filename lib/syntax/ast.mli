(** Unvalidated abstract syntax of a Splice specification file:
    interface declarations (§3.1) plus target-specification directives
    (§3.2). *)

type count =
  | Fixed of int  (** explicit reference [:5] (Fig 3.2) *)
  | Var of string  (** implicit reference [:x] (Fig 3.3) *)

type extensions = {
  pointer : bool;  (** ['*'] §3.1.2 *)
  packed : bool;  (** ['+'] §3.1.3 *)
  dma : bool;  (** ['^'] §3.1.5 *)
  by_ref : bool;
      (** ['&']: pass-by-reference — the hardware updates the array in place
          and the driver reads it back (§10.2 future work — implemented) *)
  count : count option;  (** [:N] / [:ident] *)
}

val no_extensions : extensions

type param = {
  p_loc : Loc.t;
  p_type : string list;  (** type words, e.g. [\["unsigned"; "long"\]] *)
  p_ext : extensions;
  p_name : string;
}

type ret =
  | Ret_void
  | Ret_nowait  (** non-blocking call (§3.1.7) *)
  | Ret_value of string list * extensions

type decl = {
  d_loc : Loc.t;
  d_ret : ret;
  d_name : string;
  d_params : param list;
  d_instances : int;  (** multiple-instance suffix (§3.1.6); 1 when absent *)
}

type hdl_lang = Vhdl | Verilog

type directive =
  | Bus_type of string  (** Fig 3.9 *)
  | Bus_width of int  (** Fig 3.10 *)
  | Base_address of int64  (** Fig 3.11 *)
  | Burst_support of bool  (** Fig 3.12 *)
  | Dma_support of bool  (** Fig 3.13 *)
  | Packing_support of bool  (** Fig 3.14 *)
  | Interrupt_support of bool
      (** completion interrupts (§10.2 future work — implemented) *)
  | Device_name of string  (** Fig 3.15 *)
  | Target_hdl of hdl_lang  (** Fig 3.16 *)
  | User_type of { ut_name : string; ut_def : string list; ut_width : int }
      (** Fig 3.17 *)
  | User_struct of { us_name : string; us_fields : (string list * string) list }
      (** ANSI C struct support (§10.2 future work — implemented):
          [%user_struct point { int x; int y; }] *)

type item = Directive of Loc.t * directive | Decl of decl
type file = item list

val directive_name : directive -> string
val hdl_lang_to_string : hdl_lang -> string
val pp_count : Format.formatter -> count -> unit
val pp_param : Format.formatter -> param -> unit
val pp_decl : Format.formatter -> decl -> unit
val pp_directive : Format.formatter -> directive -> unit
val pp_file : Format.formatter -> file -> unit
(** Pretty-prints a file back to concrete Splice syntax; [pp_file] output
    re-parses to an equal AST (round-trip property tested). *)
