(** Minimal JSON values, printer, and parser.

    Exists so the Chrome-trace exporter can emit — and the test suite can
    round-trip — trace files without adding a JSON dependency to the
    container's package set. The parser covers the full grammar our printer
    emits (and standard JSON with ASCII [\u] escapes). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_buffer : Buffer.t -> t -> unit

val of_string : string -> (t, string) result
val of_string_exn : string -> t
(** Raises [Failure] on parse errors. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_int : t -> int option
val to_str : t -> string option

val int_field : ?default:int -> string -> t -> (int, string) result
(** The integer member [name] of an object; [default] when it is missing
    or not an integer, else [Error "missing integer field \"name\""]. *)

val str_field : string -> t -> (string, string) result
(** The string member [name]: [Error "missing string field \"name\""]
    when it is missing or not a string. *)

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [f] over the list in order, stopping at the first [Error]. *)
