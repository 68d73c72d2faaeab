(** Appending generated text to a file's buffer. Every printer of the
    project-generation path (Vhdl, Verilog, the driver generator) writes
    its pieces straight into one [Buffer.t] per file with these helpers:
    no Printf, no intermediate strings. *)

val add : Buffer.t -> string -> unit

val add_int : Buffer.t -> int -> unit
(** The decimal text of [string_of_int]. *)

val spaces : Buffer.t -> int -> unit
(** [n] spaces; nothing when [n <= 0]. *)

val pad : Buffer.t -> int -> string -> unit
(** [pad b n s] is Printf's [%-Ns]: [s], then spaces up to [n] columns. A
    longer [s] is written whole, never cut. *)

val add_sep : Buffer.t -> string -> ('a -> unit) -> 'a list -> unit
(** [add_sep b sep f items] writes each item with [f], [sep] between
    them. *)
