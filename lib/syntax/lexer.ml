(* One loop over the string, with no call per character. [line] and [bol]
   (the offset where the current line begins) give every location: each
   character but '\n' moves the column by one, so the column of offset [i]
   is [i - bol + 1]. Identifiers and numbers hold no newline; they are
   scanned by index with the end-finders below. *)

let rec ident_end src n i =
  if i < n then
    match String.unsafe_get src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident_end src n (i + 1)
    | _ -> i
  else i

let rec digit_end src n i =
  if i < n then
    match String.unsafe_get src i with '0' .. '9' -> digit_end src n (i + 1) | _ -> i
  else i

let rec hex_end src n i =
  if i < n then
    match String.unsafe_get src i with
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> hex_end src n (i + 1)
    | _ -> i
  else i

(* the '\n' that ends a line comment, which is left to the main loop *)
let rec line_end src n i =
  if i < n && not (Char.equal (String.unsafe_get src i) '\n') then line_end src n (i + 1)
  else i

let loc_at line bol i = { Loc.line; col = i - bol + 1 }

(* a literal ending at [e] must not run into an identifier character: [12ab]
   or [0x1g] is one malformed literal, raised at its start [l], not a
   number followed by an identifier *)
let check_literal_end src n i e l =
  if e < n then
    match String.unsafe_get src e with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        Error.failf ~loc:l "malformed number literal %s"
          (String.sub src i (ident_end src n e - i))
    | _ -> ()

(* called only on the twelve symbol characters *)
let symbol = function
  | '*' -> Token.STAR
  | ':' -> Token.COLON
  | '+' -> Token.PLUS
  | '^' -> Token.CARET
  | '&' -> Token.AMP
  | ',' -> Token.COMMA
  | ';' -> Token.SEMI
  | '(' -> Token.LPAREN
  | ')' -> Token.RPAREN
  | '{' -> Token.LBRACE
  | '}' -> Token.RBRACE
  | _ -> Token.PERCENT

let tokenize src =
  let n = String.length src in
  let pos = ref 0 and line = ref 1 and bol = ref 0 and toks = ref [] in
  while !pos < n do
    let i = !pos in
    match String.unsafe_get src i with
    | ' ' | '\t' | '\r' -> pos := i + 1
    | '\n' ->
        incr line;
        pos := i + 1;
        bol := i + 1
    | '/' when i + 1 < n && Char.equal (String.unsafe_get src (i + 1)) '/' ->
        pos := line_end src n (i + 2)
    | '/' when i + 1 < n && Char.equal (String.unsafe_get src (i + 1)) '*' ->
        let start = loc_at !line !bol i in
        let j = ref (i + 2) in
        while
          !j < n
          && not
               (Char.equal (String.unsafe_get src !j) '*'
               && !j + 1 < n
               && Char.equal (String.unsafe_get src (!j + 1)) '/')
        do
          if Char.equal (String.unsafe_get src !j) '\n' then begin
            incr line;
            bol := !j + 1
          end;
          incr j
        done;
        if !j >= n then Error.fail ~loc:start "unterminated block comment";
        pos := !j + 2
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let e = ident_end src n (i + 1) in
        toks := (Token.IDENT (String.sub src i (e - i)), loc_at !line !bol i) :: !toks;
        pos := e
    | '0' .. '9' as c ->
        let l = loc_at !line !bol i in
        if Char.equal c '0' && i + 1 < n
           && (match String.unsafe_get src (i + 1) with 'x' | 'X' -> true | _ -> false)
        then begin
          let e = hex_end src n (i + 2) in
          if e = i + 2 then Error.fail ~loc:l "expected hex digits after 0x";
          check_literal_end src n i e l;
          if e - (i + 2) > 16 then Error.fail ~loc:l "hex literal wider than 64 bits";
          let v = Int64.of_string ("0x" ^ String.sub src (i + 2) (e - i - 2)) in
          toks := (Token.HEX v, l) :: !toks;
          pos := e
        end
        else begin
          let e = digit_end src n i in
          check_literal_end src n i e l;
          let s = String.sub src i (e - i) in
          match int_of_string_opt s with
          | Some v ->
              toks := (Token.INT v, l) :: !toks;
              pos := e
          | None -> Error.failf ~loc:l "integer literal %s out of range" s
        end
    | ('*' | ':' | '+' | '^' | '&' | ',' | ';' | '(' | ')' | '{' | '}' | '%') as c ->
        toks := (symbol c, loc_at !line !bol i) :: !toks;
        pos := i + 1
    | c -> Error.failf ~loc:(loc_at !line !bol i) "unexpected character %C" c
  done;
  List.rev ((Token.EOF, loc_at !line !bol n) :: !toks)
