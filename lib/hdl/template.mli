(** The annotated-HDL template engine of §5.1 / §7.1.2: scans a reference
    HDL file for [%MARKER%] symbols and replaces each with generated logic.
    Unknown markers are an error (the "marker loader" of an adapter library
    must declare every bus-specific marker it uses). *)

exception Unknown_marker of { marker : string; known : string list }

type t
(** A template split at its markers once, to be rendered many times. *)

val parse : string -> t

val markers : t -> string list
(** Distinct [%NAME%] markers in order of first occurrence. Marker names are
    uppercase identifiers ([A-Z0-9_]+). *)

val render : markers:(string * string) list -> t -> string
(** The template with every marker replaced, built as one string of its
    exact length. Raises {!Unknown_marker} for the first marker, in
    template order, that [markers] does not bind; later bindings shadow
    earlier ones. *)

val markers_in : string -> string list
(** [markers (parse src)]. *)

val expand : markers:(string * string) list -> string -> string
(** [render ~markers (parse src)]. *)

val expand_partial : markers:(string * string) list -> string -> string
(** Like {!expand} but leaves unknown markers untouched (used to apply the
    standard macro set before a bus's own marker pass). *)
