let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident c = is_ident_start c || is_digit c

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let loc st = { Loc.line = st.line; col = st.col }

(* Lookahead without an option per call: [at_end] guards [cur], and
   [at]/[at2] test the current/next character against a [char] (an int
   compare, where comparing options would be polymorphic). *)
let at_end st = st.pos >= String.length st.src
let cur st = String.unsafe_get st.src st.pos
let at st c = (not (at_end st)) && Char.equal (cur st) c

let at2 st c =
  st.pos + 1 < String.length st.src
  && Char.equal (String.unsafe_get st.src (st.pos + 1)) c

(* the current character satisfies [p] *)
let sat st p = (not (at_end st)) && p (cur st)

let advance st =
  if not (at_end st) then
    if Char.equal (cur st) '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.pos <- st.pos + 1

let rec skip_trivia st =
  if not (at_end st) then
    match cur st with
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
        skip_trivia st
    | '/' when at2 st '/' ->
        while not (at_end st || at st '\n') do
          advance st
        done;
        skip_trivia st
    | '/' when at2 st '*' ->
        let start = loc st in
        advance st;
        advance st;
        let rec close () =
          if at_end st then Error.fail ~loc:start "unterminated block comment"
          else if at st '*' && at2 st '/' then begin
            advance st;
            advance st
          end
          else begin
            advance st;
            close ()
          end
        in
        close ();
        skip_trivia st
    | _ -> ()

let lex_ident st =
  let start = st.pos in
  while sat st is_ident do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let lex_number st l =
  if at st '0' && (at2 st 'x' || at2 st 'X') then begin
    advance st;
    advance st;
    let start = st.pos in
    while sat st is_hex_digit do
      advance st
    done;
    if st.pos = start then Error.fail ~loc:l "expected hex digits after 0x";
    let s = String.sub st.src start (st.pos - start) in
    if String.length s > 16 then
      Error.fail ~loc:l "hex literal wider than 64 bits";
    Token.HEX (Int64.of_string ("0x" ^ s))
  end
  else begin
    let start = st.pos in
    while sat st is_digit do
      advance st
    done;
    let s = String.sub st.src start (st.pos - start) in
    match int_of_string_opt s with
    | Some n -> Token.INT n
    | None -> Error.failf ~loc:l "integer literal %s out of range" s
  end

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let toks = ref [] in
  let push tok l = toks := (tok, l) :: !toks in
  let rec go () =
    skip_trivia st;
    let l = loc st in
    if at_end st then push Token.EOF l
    else
      let c = cur st in
      if is_ident_start c then begin push (Token.IDENT (lex_ident st)) l; go () end
      else if is_digit c then begin push (lex_number st l) l; go () end
      else begin
        let simple tok = advance st; push tok l in
        (match c with
        | '*' -> simple Token.STAR
        | ':' -> simple Token.COLON
        | '+' -> simple Token.PLUS
        | '^' -> simple Token.CARET
        | '&' -> simple Token.AMP
        | ',' -> simple Token.COMMA
        | ';' -> simple Token.SEMI
        | '(' -> simple Token.LPAREN
        | ')' -> simple Token.RPAREN
        | '{' -> simple Token.LBRACE
        | '}' -> simple Token.RBRACE
        | '%' -> simple Token.PERCENT
        | c -> Error.failf ~loc:l "unexpected character %C" c);
        go ()
      end
  in
  go ();
  List.rev !toks
