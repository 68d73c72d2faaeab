(** Appending generated text to a file's buffer. Every printer of the
    project-generation path (Vhdl, Verilog, the driver generator) writes
    its pieces straight into one [Buffer.t] per file with these helpers:
    no Printf, no intermediate strings. *)

val render : (Buffer.t -> unit) -> string
(** [render f] runs [f] on an empty buffer lent for the call and returns
    what [f] wrote, as one string of its exact length. Each domain reuses
    one buffer from file to file; a render nested inside another, or
    running while the buffer is out, gets a fresh one. If [f] raises, the
    buffer is still returned and the exception passes through. *)

val add : Buffer.t -> string -> unit

val add_int : Buffer.t -> int -> unit
(** The decimal text of [string_of_int], without formatting through C. *)

val int_to_string : int -> string
(** [string_of_int], from a table for 0–255 and a digit loop beyond. *)

val spaces : Buffer.t -> int -> unit
(** [n] spaces; nothing when [n <= 0]. *)

val pad : Buffer.t -> int -> string -> unit
(** [pad b n s] is Printf's [%-Ns]: [s], then spaces up to [n] columns. A
    longer [s] is written whole, never cut. *)

val add_sep : Buffer.t -> string -> ('a -> unit) -> 'a list -> unit
(** [add_sep b sep f items] writes each item with [f], [sep] between
    them. *)
