(** Resolved, validated Splice specifications — the OCaml rendering of the
    [splice_params] structure of Fig 7.3 ([s_module_params] /
    [s_func_params] / [s_io_params]). Produced by {!Validate.build}. *)

type io = {
  io_name : string;
  type_words : string list;  (** as written, e.g. [\["unsigned"; "long"\]] *)
  io_width : int;  (** element width in bits *)
  signed : bool;
  is_pointer : bool;
  count : Ast.count option;  (** [None] for scalars *)
  is_packed : bool;  (** per-transfer ['+'] *)
  is_dma : bool;
  is_by_ref : bool;  (** ['&'] in/out parameter (§10.2) *)
  fields : (string * Ctype.info) list;
      (** non-empty for [%user_struct] types (§10.2): ordered scalar fields,
          transferred field by field *)
  used_as_index : bool;  (** some later parameter's implicit reference *)
}

type func = {
  name : string;
  func_id : int;  (** identifier of the first instance; 0 is the status
                      register (§4.2.2), so function ids start at 1 *)
  instances : int;
  inputs : io list;
  output : io option;  (** [None] for [void] and [nowait] functions *)
  nowait : bool;
}

type t = {
  device_name : string;
  hdl : Ast.hdl_lang;
  bus_name : string;
  bus_width : int;
  base_address : int64 option;
  burst : bool;
  dma : bool;
  packing : bool;  (** global [%packing_support] *)
  interrupts : bool;  (** [%interrupt_support] (§10.2) *)
  user_types : (string * Ctype.info) list;
  structs : (string * (string * Ctype.info) list) list;
      (** registered [%user_struct]s, in order (§10.2) *)
  funcs : func list;
  total_instances : int;
  func_id_width : int;  (** bits in the [FUNC_ID] field *)
}

val readbacks : func -> io list
(** The by-reference inputs, in declaration order — read back by the driver
    after the calculation completes (§10.2). *)

val blocking_ack : func -> bool
(** True for blocking functions with no return value, which get the pseudo
    output state of §5.3.1 so the driver can pause on completion. *)

val find_func : t -> string -> func option

val assoc_name : string -> (string * 'a) list -> 'a option
(** The first binding of a function, parameter or field name, compared
    with [String.equal]: [List.assoc_opt] compares keys polymorphically. *)

val func_of_id : t -> int -> (func * int) option
(** [func_of_id spec id] resolves a [FUNC_ID] to its function and instance
    index; [None] for id 0 (status register) and unassigned ids. *)

val io_elem_count : io -> values:(string -> int) -> int
(** Number of elements transferred for [io]: 1 for scalars, the literal for
    explicit counts, and [values v] for implicit references. *)

val effective_packed : t -> io -> bool
(** Whether this transfer is packed: per-transfer ['+'] or global
    [%packing_support], and only when multiple elements fit a bus word
    (§3.2.2 packs only "small" types). *)

val base_address_hex : t -> string
(** The base address (0 when there is none) in lower-case hex, at least 8
    digits: what [Printf]'s [%08Lx] gives, for the generated HDL and C. *)

val pp : Format.formatter -> t -> unit
(** Diagnostic dump (not re-parseable; use {!Ast.pp_file} for syntax). *)
