(** Semantic validation: turns a raw {!Ast.file} into a resolved {!Spec.t},
    enforcing every rule from §3.2–§3.3:

    - required directives: [%bus_type], [%bus_width], [%device_name];
      [%base_address] additionally required for memory-mapped buses;
    - no duplicate directives, functions, or parameter names;
    - all types resolvable (natives + [%user_type]s);
    - pointers need a count, counts/packing/DMA need a pointer;
    - DMA transfers need [%dma_support true] {e and} a DMA-capable bus;
    - implicit references may only name earlier, scalar, integer inputs
      (the ordering limitation of §3.3);
    - bus-capability checks ([%bus_width] legal for the bus, burst/DMA
      actually available) when a [lookup_bus] function is supplied.

    All problems are collected and reported together. *)

type issue = { loc : Loc.t; message : string }

val pp_issue : Format.formatter -> issue -> unit

val build :
  ?lookup_bus:(string -> Bus_caps.t option) ->
  Ast.file ->
  (Spec.t, issue list) result

val of_string :
  ?lookup_bus:(string -> Bus_caps.t option) ->
  string ->
  (Spec.t, issue list) result
(** Lex + parse + validate. Lexer/parser errors are returned as issues. *)

val of_string_exn :
  ?lookup_bus:(string -> Bus_caps.t option) -> string -> Spec.t
