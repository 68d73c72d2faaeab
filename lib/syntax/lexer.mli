(** Hand-written lexer for the Splice specification language.

    Handles [//] line comments, [/* *]{i /}] block comments, decimal and
    [0x...] hexadecimal literals, identifiers, and the extension symbols of
    §3.1. Raises [Error.Splice_error] on unexpected characters. *)

val tokenize : string -> (Token.t * Loc.t) list
(** Token stream terminated by [EOF]. Each location is the 1-based line
    and column of the token's first character (every character but a
    newline, tabs included, is one column). An error is raised at the
    first bad character, or at the start of an unterminated block comment
    or of a malformed literal. A number runs into no letter or [_]:
    [12ab] and [0x1g] are malformed literals, not a number and an
    identifier. *)
