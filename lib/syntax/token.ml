type t =
  | IDENT of string
  | INT of int
  | HEX of int64
  | STAR
  | COLON
  | PLUS
  | CARET
  | AMP
  | COMMA
  | SEMI
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | PERCENT
  | EOF

let to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | HEX v -> Printf.sprintf "hex literal 0x%Lx" v
  | STAR -> "'*'"
  | COLON -> "':'"
  | PLUS -> "'+'"
  | CARET -> "'^'"
  | AMP -> "'&'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | PERCENT -> "'%'"
  | EOF -> "end of input"

let pp fmt t = Format.pp_print_string fmt (to_string t)
(* by constructor, so no token comparison reaches the polymorphic compare *)
let equal a b =
  match (a, b) with
  | IDENT x, IDENT y -> String.equal x y
  | INT x, INT y -> Int.equal x y
  | HEX x, HEX y -> Int64.equal x y
  | (IDENT _ | INT _ | HEX _), _ | _, (IDENT _ | INT _ | HEX _) -> false
  | _ -> a == b
