(** Width-tagged bit vectors, 1..64 bits wide, backed by [int64].

    Every value carries its width; operations check width compatibility and
    raise [Width_mismatch] on disagreement. All values are kept normalised:
    bits above [width] are always zero. This module is the value domain of the
    RTL simulation kernel and of the transfer planner. *)

type t

exception Width_mismatch of string
exception Invalid_width of int

val max_width : int
(** Largest supported width (64). *)

(** {1 Construction} *)

val create : width:int -> int64 -> t
(** [create ~width v] masks [v] to [width] bits. Raises [Invalid_width] unless
    [1 <= width <= 64]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] masks [v] to [width] bits, as {!create}. A value of
    at most 8 bits is a shared constant: allocates nothing. *)

val zero : int -> t
(** A shared constant per width: allocates nothing. *)

val one : int -> t
val ones : int -> t

val of_bool : bool -> t
(** 1-bit value; one of two shared constants. *)

val of_binary_string : string -> t
(** [of_binary_string "1010"] builds a 4-bit value; accepts ['_'] separators.
    Raises [Invalid_argument] on other characters or empty strings. *)

(** {1 Observation} *)

val width : t -> int
val to_int64 : t -> int64

val to_int : t -> int
(** Raises [Failure] if the value does not fit in a non-negative OCaml [int]. *)

val to_signed_int64 : t -> int64
(** Sign-extend bit [width-1] to 64 bits. *)

val to_bool : t -> bool
(** True iff non-zero. *)

val bit : t -> int -> bool
(** [bit v i] is bit [i] (LSB = 0). Raises [Invalid_argument] out of range. *)

val is_zero : t -> bool
val equal : t -> t -> bool
(** Width and value equality. *)

val compare : t -> t -> int

(** {1 Arithmetic (modular, width-preserving)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val neg : t -> t

(** {1 Logic} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Logical (zero-fill) right shift. *)

(** {1 Comparisons (unsigned)} *)

val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool

(** {1 Structure} *)

val concat : t -> t -> t
(** [concat hi lo]; result width is the sum. Raises [Invalid_width] if the sum
    exceeds {!max_width}. *)

val select : t -> hi:int -> lo:int -> t
(** Bit slice, inclusive; width [hi - lo + 1]. *)

val set_bit : t -> int -> bool -> t
val resize : t -> int -> t
(** Zero-extend or truncate to a new width. *)

val sign_extend : t -> int -> t
(** Sign-extend to a wider width. Raises [Invalid_width] when narrowing. *)

val split_words : t -> word:int -> t list
(** [split_words v ~word] cuts [v] into [word]-bit pieces, most significant
    first; the first piece may be narrower when [width v] is not a multiple of
    [word]. *)

val concat_words : t list -> t
(** Left-fold of {!concat}; inverse of {!split_words} given equal widths. *)

(** {1 One-hot helpers (bus chip-enables)} *)

val one_hot : width:int -> int -> t
(** [one_hot ~width i] has only bit [i] set. *)

val one_hot_to_index : t -> int option
(** [Some i] when exactly one bit is set, [None] otherwise. This implements
    the one-hot [RD_CE]/[WR_CE] to binary [FUNC_ID] adaptation of §4.3.2. *)

(** {1 Printing} *)

val to_binary_string : t -> string
val to_hex_string : t -> string
val pp : Format.formatter -> t -> unit
(** Prints as [width'hHEX]. *)
