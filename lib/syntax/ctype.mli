(** ANSI-C data types understood by Splice (§3.1.1), plus the [%user_type]
    registry (§3.2.3).

    Each type resolves to a bit width and signedness; widths drive the
    split/packing arithmetic of the transfer planner. *)

type info = { width : int; signed : bool }

type env
(** Immutable mapping from type names to {!info}. *)

val base : env
(** The native types of Fig 3.1: [void] (width 0), [bool] (1), [char] (8),
    [short] (16), [int]/[long]/[unsigned]/[float]/[single] (32), [double]
    and [long long] (64); [unsigned] also acts as a modifier prefix. *)

val add_user_type : env -> name:string -> width:int -> signed:bool -> env
(** Register a [%user_type]. Raises [Error.Splice_error] when redefining a
    native type or when the width is outside 1..64. *)

val resolve : env -> string list -> info option
(** [resolve env words] resolves a multi-word type such as
    [\["unsigned"; "long"; "long"\]]. For struct types the returned width is
    the sum of the field widths. [None] when unknown. *)

val add_struct :
  env -> name:string -> fields:(string * info) list -> env
(** Register a [%user_struct] (§10.2 future work — implemented): an ordered
    list of scalar fields. Raises [Error.Splice_error] on name collisions,
    empty field lists, or fields wider than 64 bits. *)

val struct_fields : env -> string -> (string * info) list option
(** [Some fields] when the (single-word) type name is a registered struct. *)

val structs : env -> (string * (string * info) list) list
(** Registered structs, in registration order. *)

val user_types : env -> (string * info) list
(** User-registered types only, in registration order. *)
