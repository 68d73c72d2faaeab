open Hdl_ast
open Emit

let add_type b w =
  if w = 1 then add b "std_logic"
  else begin
    add b "std_logic_vector(";
    add_int b (w - 1);
    add b " downto 0)"
  end

(* a [w]-bit literal, most significant bit first, in double quotes *)
let add_bin_literal b v w =
  Buffer.add_char b '"';
  for i = w - 1 downto 0 do
    Buffer.add_char b (if (v lsr i) land 1 = 1 then '1' else '0')
  done;
  Buffer.add_char b '"'

let is_arith = function Add | Sub | Mul | Div -> true | And | Eq | Neq -> false

(* the sort rule of Hdl_ast: integer atoms, and arithmetic whose left
   operand is an integer *)
let rec is_int = function
  | Int_lit _ | Int_ref _ | To_int _ -> true
  | Binop (op, a, _) -> is_arith op && is_int a
  | _ -> false

let arith_op = function Add -> " + " | Sub -> " - " | Mul -> " * " | _ -> " / "
let prec = function Mul | Div -> 2 | _ -> 1

let to_string_with f x = render (fun b -> f b x)

(* the length of a vector expression, for sizing an integer against it:
   bitwise operands share their width, so the leftmost signal's will do *)
let rec length_of b = function
  | Ref n ->
      add b n;
      add b "'length"
  | Binop (_, a, _) | Not a -> length_of b a
  | e -> invalid_arg ("Vhdl.length_of: not a sized vector: " ^ to_string_with expr e)

and expr b = function
  | Ref n -> add b n
  | Slice (s, hi, lo) ->
      add b s;
      Buffer.add_char b '(';
      add_int b hi;
      add b " downto ";
      add_int b lo;
      Buffer.add_char b ')'
  | Lit (v, 1) -> add b (if v land 1 = 1 then "'1'" else "'0'")
  | Lit (v, w) -> add_bin_literal b v w
  | Bool_lit v -> add b (if v then "'1'" else "'0'")
  | All_zeros -> add b "(others => '0')"
  | (Int_lit _ | Int_ref _ | To_int _) as e -> int_expr b e
  | Binop (And, x, y) ->
      Buffer.add_char b '(';
      expr b x;
      add b " and ";
      expr b y;
      Buffer.add_char b ')'
  | Binop ((Eq | Neq), _, _) as e ->
      invalid_arg
        ("Vhdl.expr: a comparison is a condition, not a value: " ^ to_string_with cond e)
  | Binop (op, x, y) as e ->
      if is_int x then int_expr b e
      else begin
        add b "std_logic_vector(unsigned(";
        expr b x;
        Buffer.add_char b ')';
        add b (arith_op op);
        if is_int y then int_operand b y
        else begin
          add b "unsigned(";
          expr b y;
          Buffer.add_char b ')'
        end;
        Buffer.add_char b ')'
      end
  | Not e ->
      add b "(not ";
      expr b e;
      Buffer.add_char b ')'
  | Concat es -> add_sep b " & " (expr b) es

and int_expr b = function
  | Int_lit i -> add_int b i
  | Int_ref n -> add b n
  | Binop (op, x, y) when is_arith op ->
      let side min e =
        match e with
        | Binop (op', _, _) when is_arith op' && prec op' < min ->
            Buffer.add_char b '(';
            int_expr b e;
            Buffer.add_char b ')'
        | _ -> int_expr b e
      in
      side (prec op) x;
      add b (arith_op op);
      side (prec op + 1) y
  | To_int e | e ->
      add b "to_integer(unsigned(";
      expr b e;
      add b "))"

(* an integer operand of a comparison or vector arithmetic *)
and int_operand b e =
  match e with
  | Binop _ ->
      Buffer.add_char b '(';
      int_expr b e;
      Buffer.add_char b ')'
  | _ -> int_expr b e

and cond b = function
  | Ref n ->
      add b n;
      add b " = '1'"
  | Bool_lit v -> add b (if v then "true" else "false")
  | Binop (((Eq | Neq) as op), x, y) -> (
      let rel = if op = Eq then " = " else " /= " in
      let unsigned e =
        add b "unsigned(";
        expr b e;
        Buffer.add_char b ')';
        add b rel
      in
      match (x, y) with
      | _ when is_int x && is_int y ->
          int_operand b x;
          add b rel;
          int_operand b y
      | _ when is_int x -> cond b (Binop (op, y, x))
      | _, Int_lit n ->
          unsigned x;
          add_int b n
      | _ when is_int y ->
          unsigned x;
          add b "to_unsigned(";
          int_expr b y;
          add b ", ";
          length_of b x;
          Buffer.add_char b ')'
      | _, All_zeros ->
          expr b x;
          add b rel;
          add b "std_logic_vector(to_unsigned(0, ";
          length_of b x;
          add b "))"
      | _ ->
          expr b x;
          add b rel;
          expr b y)
  | Binop (And, x, y) ->
      Buffer.add_char b '(';
      cond b x;
      add b " and ";
      cond b y;
      Buffer.add_char b ')'
  | Not e ->
      add b "not (";
      cond b e;
      Buffer.add_char b ')'
  | e when is_int e ->
      int_expr b e;
      add b " /= 0"
  | e ->
      add b "unsigned(";
      expr b e;
      add b ") /= 0"

let rec stmt b indent s =
  match s with
  | Assign (lhs, rhs) ->
      spaces b indent;
      expr b lhs;
      add b " <= ";
      expr b rhs;
      add b ";\n"
  | Comment c ->
      spaces b indent;
      add b "-- ";
      add b c;
      Buffer.add_char b '\n'
  | If (branches, else_) ->
      List.iteri
        (fun i (c, body) ->
          spaces b indent;
          add b (if i = 0 then "if (" else "elsif (");
          cond b c;
          add b ") then\n";
          List.iter (stmt b (indent + 2)) body)
        branches;
      if else_ <> [] then begin
        spaces b indent;
        add b "else\n";
        List.iter (stmt b (indent + 2)) else_
      end;
      spaces b indent;
      add b "end if;\n"
  | Case (scrutinee, arms) ->
      spaces b indent;
      add b "case ";
      expr b scrutinee;
      add b " is\n";
      List.iter
        (fun (choice, body) ->
          spaces b indent;
          add b "  when ";
          add b (match choice with Choice_ref r -> r | Choice_others -> "others");
          add b " =>\n";
          if body = [] then begin
            spaces b indent;
            add b "    null;\n"
          end
          else List.iter (stmt b (indent + 4)) body)
        arms;
      spaces b indent;
      add b "end case;\n"

let add_concurrent b = function
  | Ccomment c ->
      add b "  -- ";
      add b c;
      Buffer.add_char b '\n'
  | Cassign (lhs, rhs) ->
      add b "  ";
      expr b lhs;
      add b " <= ";
      expr b rhs;
      add b ";\n"
  | Cassign_cond (lhs, branches, default) ->
      add b "  ";
      expr b lhs;
      add b " <= ";
      add_sep b " else "
        (fun (c, v) ->
          expr b v;
          add b " when (";
          cond b c;
          Buffer.add_char b ')')
        branches;
      add b " else ";
      expr b default;
      add b ";\n"
  | Instance { inst_name; comp_name; generic_map; port_map } ->
      (* VHDL-93 direct entity instantiation: no component declarations *)
      add b "  ";
      add b inst_name;
      add b " : entity work.";
      add b comp_name;
      Buffer.add_char b '\n';
      if generic_map <> [] then begin
        add b "    generic map (";
        add_sep b ", "
          (fun (k, v) ->
            add b k;
            add b " => ";
            add_int b v)
          generic_map;
        add b ")\n"
      end;
      add b "    port map (\n";
      let last = List.length port_map - 1 in
      List.iteri
        (fun i (k, v) ->
          add b "      ";
          pad b 20 k;
          add b " => ";
          expr b v;
          add b (if i = last then "\n" else ",\n"))
        port_map;
      add b "    );\n"
  | Proc p ->
      add b "  ";
      add b p.proc_name;
      add b " : process (";
      if p.clocked then add b "CLK"
      else if p.sensitivity = [] then add b "all"
      else add_sep b ", " (add b) p.sensitivity;
      add b ")\n  begin\n";
      if p.clocked then begin
        add b "    if rising_edge(CLK) then\n";
        List.iter (stmt b 6) p.body;
        add b "    end if;\n"
      end
      else List.iter (stmt b 4) p.body;
      add b "  end process ";
      add b p.proc_name;
      add b ";\n"

let add_generic b g =
  add b "    ";
  pad b 24 g.gen_name;
  add b " : integer := ";
  add_int b g.gen_default

let add_port b p =
  add b "    ";
  pad b 24 p.port_name;
  add b (match p.dir with In -> " : in  " | Out -> " : out ");
  add_type b p.width

let add_constant b c =
  add b "  constant ";
  pad b 20 c.const_name;
  (match c.const_width with
  | Some w ->
      add b " : ";
      add_type b w;
      add b " := ";
      expr b (Lit (c.const_value, w))
  | None ->
      add b " : integer := ";
      add_int b c.const_value);
  add b ";\n"

let add_signal b s =
  add b "  signal ";
  pad b 22 s.sig_name;
  add b " : ";
  add_type b s.sig_width;
  add b (if s.sig_width = 1 then " := '0';\n" else " := (others => '0');\n")

let expr e = to_string_with expr e
let cond e = to_string_with cond e

let add_design b (d : design) =
  List.iter
    (fun l ->
      add b "-- ";
      add b l;
      Buffer.add_char b '\n')
    d.header;
  add b "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  (* entity *)
  add b "entity ";
  add b d.name;
  add b " is\n";
  if d.generics <> [] then begin
    add b "  generic (\n";
    add_sep b ";\n" (add_generic b) d.generics;
    add b "\n  );\n"
  end;
  if d.ports <> [] then begin
    add b "  port (\n";
    add_sep b ";\n" (add_port b) d.ports;
    add b "\n  );\n"
  end;
  add b "end entity ";
  add b d.name;
  add b ";\n\n";
  (* architecture *)
  add b "architecture rtl of ";
  add b d.name;
  add b " is\n";
  List.iter (add_constant b) d.constants;
  List.iter (add_signal b) d.signals;
  add b "begin\n";
  List.iter (add_concurrent b) d.body;
  add b "end architecture rtl;\n"

let to_string d = render (fun b -> add_design b d)
