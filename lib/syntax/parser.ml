open Ast

type stream = { mutable toks : (Token.t * Loc.t) list }

let peek st = match st.toks with [] -> (Token.EOF, Loc.dummy) | t :: _ -> t
let peek_tok st = fst (peek st)

let peek2_tok st =
  match st.toks with _ :: (t, _) :: _ -> t | _ -> Token.EOF

let next st =
  match st.toks with
  | [] -> (Token.EOF, Loc.dummy)
  | t :: rest ->
      st.toks <- rest;
      t

let expect st tok =
  let got, loc = next st in
  if not (Token.equal got tok) then
    Error.failf ~loc "expected %s but found %s" (Token.to_string tok)
      (Token.to_string got);
  loc

let expect_ident st what =
  match next st with
  | Token.IDENT s, _ -> s
  | got, loc ->
      Error.failf ~loc "expected %s but found %s" what (Token.to_string got)

let expect_int st what =
  match next st with
  | Token.INT n, loc ->
      if n < 0 then Error.failf ~loc "%s must be non-negative" what;
      n
  | got, loc ->
      Error.failf ~loc "expected %s but found %s" what (Token.to_string got)

let expect_bool st what =
  match next st with
  | Token.IDENT "true", _ -> true
  | Token.IDENT "false", _ -> false
  | got, loc ->
      Error.failf ~loc "expected true or false for %s but found %s" what
        (Token.to_string got)

(* ------------------------------------------------------------------ *)
(* Directives (§3.2)                                                   *)
(* ------------------------------------------------------------------ *)

(* Canonical directive keys, with the spaced and aliased spellings the
   thesis itself uses (Fig 8.2 writes "% name" and "% hdl type"). *)
let spaced_directive_key w1 w2 =
  match (w1, w2) with
  | "bus", "type" -> Some "bus_type"
  | "bus", "width" -> Some "bus_width"
  | "base", "address" -> Some "base_address"
  | "burst", "support" -> Some "burst_support"
  | "dma", "support" -> Some "dma_support"
  | "packing", "support" -> Some "packing_support"
  | "interrupt", "support" -> Some "interrupt_support"
  | "device", "name" -> Some "device_name"
  | ("target", "hdl" | "hdl", "type") -> Some "target_hdl"
  | "user", "type" -> Some "user_type"
  | "user", "struct" -> Some "user_struct"
  | _ -> None

let directive_key = function
  | "bus_type" -> Some "bus_type"
  | "bus_width" -> Some "bus_width"
  | "base_address" -> Some "base_address"
  | "burst_support" -> Some "burst_support"
  | "dma_support" -> Some "dma_support"
  | "packing_support" -> Some "packing_support"
  | "interrupt_support" -> Some "interrupt_support"
  | "device_name" | "name" -> Some "device_name"
  | "target_hdl" | "hdl_type" -> Some "target_hdl"
  | "user_type" -> Some "user_type"
  | "user_struct" -> Some "user_struct"
  | _ -> None

let parse_directive_key st loc =
  let w1 = expect_ident st "a directive name after '%'" in
  (* Prefer the two-word spelling when it forms a known key. *)
  let two =
    match peek_tok st with
    | Token.IDENT w2 -> spaced_directive_key w1 w2
    | _ -> None
  in
  match two with
  | Some key ->
      ignore (next st);
      key
  | None -> (
      match directive_key w1 with
      | Some key -> key
      | None -> Error.failf ~loc "unknown directive %%%s" w1)

(* the identifiers up to the next other token, last first *)
let idents_rev st =
  let rec go acc =
    match peek_tok st with
    | Token.IDENT s ->
        ignore (next st);
        go (s :: acc)
    | _ -> acc
  in
  go []

let parse_user_type st =
  let name = expect_ident st "a type name" in
  ignore (expect st Token.COMMA);
  let loc = snd (peek st) in
  let def = List.rev (idents_rev st) in
  if def = [] then Error.fail ~loc "expected a type definition in %user_type";
  ignore (expect st Token.COMMA);
  let width = expect_int st "a bit width" in
  User_type { ut_name = name; ut_def = def; ut_width = width }

let parse_user_struct st loc =
  let name = expect_ident st "a struct name" in
  ignore (expect st Token.LBRACE);
  let rec fields acc =
    match peek st with
    | Token.RBRACE, _ ->
        ignore (next st);
        List.rev acc
    | Token.IDENT _, field -> (
        match idents_rev st with
        | fname :: (_ :: _ as rev_ty) ->
            ignore (expect st Token.SEMI);
            fields ((List.rev rev_ty, fname) :: acc)
        | _ -> Error.fail ~loc:field "a struct field needs a type and a name")
    | got, loc ->
        Error.failf ~loc "expected a struct field or '}' but found %s"
          (Token.to_string got)
  in
  let fs = fields [] in
  if fs = [] then Error.fail ~loc "%user_struct needs at least one field";
  User_struct { us_name = name; us_fields = fs }

let parse_directive_body st loc =
  let key = parse_directive_key st loc in
  match key with
  | "bus_type" -> Bus_type (expect_ident st "a bus name")
  | "bus_width" -> Bus_width (expect_int st "a bus width")
  | "base_address" -> (
      match next st with
      | Token.HEX v, _ -> Base_address v
      | Token.INT n, _ -> Base_address (Int64.of_int n)
      | got, loc ->
          Error.failf ~loc "expected an address (0x...) but found %s"
            (Token.to_string got))
  | "burst_support" -> Burst_support (expect_bool st "burst_support")
  | "dma_support" -> Dma_support (expect_bool st "dma_support")
  | "packing_support" -> Packing_support (expect_bool st "packing_support")
  | "interrupt_support" -> Interrupt_support (expect_bool st "interrupt_support")
  | "device_name" -> Device_name (expect_ident st "a device name")
  | "target_hdl" -> (
      let loc = snd (peek st) in
      match expect_ident st "an HDL name" with
      | "vhdl" -> Target_hdl Vhdl
      | "verilog" -> Target_hdl Verilog
      | s -> Error.failf ~loc "unsupported HDL %S (expected vhdl or verilog)" s)
  | "user_type" -> parse_user_type st
  | "user_struct" -> parse_user_struct st loc
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Extensions (§3.1.2–3.1.5, Fig 3.8)                                  *)
(* ------------------------------------------------------------------ *)

let rec parse_extensions ?(allow_pointer = true) st acc =
  match peek_tok st with
  | Token.STAR ->
      let _, loc = next st in
      if not allow_pointer then
        Error.fail ~loc "'*' must appear immediately after the type";
      if acc.pointer then Error.fail ~loc "duplicate '*' extension";
      parse_extensions ~allow_pointer st { acc with pointer = true }
  | Token.COLON ->
      (* A ':' inside a parameter position is a count reference. *)
      let _, loc = next st in
      if acc.count <> None then Error.fail ~loc "duplicate ':' reference";
      let count =
        match next st with
        | Token.INT n, loc ->
            if n <= 0 then
              Error.fail ~loc "explicit reference must be positive";
            Fixed n
        | Token.IDENT v, _ -> Var v
        | got, loc ->
            Error.failf ~loc
              "expected a count or identifier after ':' but found %s"
              (Token.to_string got)
      in
      parse_extensions ~allow_pointer st { acc with count = Some count }
  | Token.PLUS ->
      let _, loc = next st in
      if acc.packed then Error.fail ~loc "duplicate '+' extension";
      parse_extensions ~allow_pointer st { acc with packed = true }
  | Token.CARET ->
      let _, loc = next st in
      if acc.dma then Error.fail ~loc "duplicate '^' extension";
      parse_extensions ~allow_pointer st { acc with dma = true }
  | Token.AMP ->
      let _, loc = next st in
      if acc.by_ref then Error.fail ~loc "duplicate '&' extension";
      parse_extensions ~allow_pointer st { acc with by_ref = true }
  | _ -> acc

let merge_extensions loc a b =
  let dup what = Error.failf ~loc "duplicate %s extension" what in
  {
    pointer = (if a.pointer && b.pointer then dup "'*'" else a.pointer || b.pointer);
    packed = (if a.packed && b.packed then dup "'+'" else a.packed || b.packed);
    dma = (if a.dma && b.dma then dup "'^'" else a.dma || b.dma);
    by_ref = (if a.by_ref && b.by_ref then dup "'&'" else a.by_ref || b.by_ref);
    count =
      (match (a.count, b.count) with
      | Some _, Some _ -> dup "':'"
      | Some c, None | None, Some c -> Some c
      | None, None -> None);
  }

(* ------------------------------------------------------------------ *)
(* Declarations (§3.1)                                                 *)
(* ------------------------------------------------------------------ *)

let is_extension_tok = function
  | Token.STAR | Token.COLON | Token.PLUS | Token.CARET | Token.AMP -> true
  | _ -> false

let parse_param st =
  let loc = snd (peek st) in
  let rev_words = idents_rev st in
  if rev_words = [] then Error.fail ~loc "expected a parameter declaration";
  if is_extension_tok (peek_tok st) then begin
    (* type words, extensions, then the identifier: [int*:5 x] *)
    let ext = parse_extensions st no_extensions in
    let name = expect_ident st "a parameter name" in
    let post = parse_extensions ~allow_pointer:false st no_extensions in
    let ext = merge_extensions loc ext post in
    { p_loc = loc; p_type = List.rev rev_words; p_ext = ext; p_name = name }
  end
  else begin
    (* all idents; the last one is the parameter name: [unsigned long x] *)
    match rev_words with
    | [] -> assert false
    | [ _only ] ->
        Error.fail ~loc "parameter is missing a type or a name"
    | name :: rev_type ->
        {
          p_loc = loc;
          p_type = List.rev rev_type;
          p_ext = no_extensions;
          p_name = name;
        }
  end

let parse_params st closing =
  match peek_tok st with
  | t when Token.equal t closing -> []
  | Token.IDENT "void" when Token.equal (peek2_tok st) closing ->
      ignore (next st);
      []
  | _ ->
      let rec go acc =
        let p = parse_param st in
        match peek_tok st with
        | Token.COMMA ->
            ignore (next st);
            go (p :: acc)
        | _ -> List.rev (p :: acc)
      in
      go []

(* [e = no_extensions], field by field rather than by polymorphic compare *)
let plain (e : extensions) =
  not (e.pointer || e.packed || e.dma || e.by_ref || Option.is_some e.count)

let parse_decl_from st =
  let loc = snd (peek st) in
  let rev_words = idents_rev st in
  if rev_words = [] then Error.fail ~loc "expected a declaration";
  let ret_ext = parse_extensions st no_extensions in
  let ret_words, fname =
    if plain ret_ext then
      (* no extension symbols: the last ident is the function name *)
      match rev_words with
      | [] -> assert false
      | [ _only ] ->
          Error.fail ~loc "declaration is missing a return type"
      | name :: rev_ty -> (List.rev rev_ty, name)
    else
      (* extensions separate the return type from the name: [int*:4 f(...)] *)
      (List.rev rev_words, expect_ident st "a function name")
  in
  let opening, closing =
    match next st with
    | Token.LPAREN, _ -> (Token.LPAREN, Token.RPAREN)
    | Token.LBRACE, _ -> (Token.LBRACE, Token.RBRACE)
    | got, loc ->
        Error.failf ~loc "expected '(' or '{' but found %s" (Token.to_string got)
  in
  ignore opening;
  let params = parse_params st closing in
  ignore (expect st closing);
  let instances =
    match peek_tok st with
    | Token.COLON ->
        ignore (next st);
        let n = expect_int st "an instance count" in
        if n < 1 then Error.fail ~loc "instance count must be at least 1";
        n
    | _ -> 1
  in
  ignore (expect st Token.SEMI);
  let ret =
    match (ret_words, ret_ext) with
    | [ "void" ], e when plain e -> Ret_void
    | [ "nowait" ], e when plain e -> Ret_nowait
    | [ "nowait" ], _ -> Error.fail ~loc "nowait cannot carry extensions"
    | ws, e -> Ret_value (ws, e)
  in
  { d_loc = loc; d_ret = ret; d_name = fname; d_params = params; d_instances = instances }

let parse_items st =
  let rec go acc =
    match peek st with
    | Token.EOF, _ -> List.rev acc
    | Token.PERCENT, loc ->
        ignore (next st);
        let d = parse_directive_body st loc in
        go (Directive (loc, d) :: acc)
    | Token.IDENT _, _ -> go (Decl (parse_decl_from st) :: acc)
    | got, loc ->
        Error.failf ~loc "expected a directive or declaration but found %s"
          (Token.to_string got)
  in
  go []

let stream_of_string src = { toks = Lexer.tokenize src }

let parse_file src = parse_items (stream_of_string src)

let ensure_eof st what =
  match peek st with
  | Token.EOF, _ -> ()
  | got, loc ->
      Error.failf ~loc "trailing input after %s: %s" what (Token.to_string got)

let parse_decl src =
  let st = stream_of_string src in
  let d = parse_decl_from st in
  ensure_eof st "declaration";
  d

let parse_directive src =
  let st = stream_of_string src in
  let loc = expect st Token.PERCENT in
  let d = parse_directive_body st loc in
  ensure_eof st "directive";
  d
