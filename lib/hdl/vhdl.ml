open Hdl_ast

let type_of_width w =
  if w = 1 then "std_logic" else Printf.sprintf "std_logic_vector(%d downto 0)" (w - 1)

let bin_literal v w =
  let b = Buffer.create w in
  for i = w - 1 downto 0 do
    Buffer.add_char b (if (v lsr i) land 1 = 1 then '1' else '0')
  done;
  Buffer.contents b

let is_arith = function Add | Sub | Mul | Div -> true | And | Eq | Neq -> false

(* the sort rule of Hdl_ast: integer atoms, and arithmetic whose left
   operand is an integer *)
let rec is_int = function
  | Int_lit _ | Int_ref _ | To_int _ -> true
  | Binop (op, a, _) -> is_arith op && is_int a
  | _ -> false

let arith_op = function Add -> "+" | Sub -> "-" | Mul -> "*" | _ -> "/"
let prec = function Mul | Div -> 2 | _ -> 1

(* the length of a vector expression, for sizing an integer against it:
   bitwise operands share their width, so the leftmost signal's will do *)
let rec length_of = function
  | Ref n -> n ^ "'length"
  | Binop (_, a, _) | Not a -> length_of a
  | e -> invalid_arg ("Vhdl.length_of: not a sized vector: " ^ expr e)

and expr = function
  | Ref n -> n
  | Slice (s, hi, lo) -> Printf.sprintf "%s(%d downto %d)" s hi lo
  | Lit (v, 1) -> Printf.sprintf "'%d'" (v land 1)
  | Lit (v, w) -> Printf.sprintf "\"%s\"" (bin_literal v w)
  | Bool_lit b -> if b then "'1'" else "'0'"
  | All_zeros -> "(others => '0')"
  | (Int_lit _ | Int_ref _ | To_int _) as e -> int_expr e
  | Binop (And, a, b) -> Printf.sprintf "(%s and %s)" (expr a) (expr b)
  | Binop ((Eq | Neq), _, _) as e ->
      invalid_arg ("Vhdl.expr: a comparison is a condition, not a value: " ^ cond e)
  | Binop (op, a, b) as e ->
      if is_int a then int_expr e
      else
        Printf.sprintf "std_logic_vector(unsigned(%s) %s %s)" (expr a) (arith_op op)
          (if is_int b then int_operand b else Printf.sprintf "unsigned(%s)" (expr b))
  | Not e -> Printf.sprintf "(not %s)" (expr e)
  | Concat es -> String.concat " & " (List.map expr es)

and int_expr = function
  | Int_lit i -> string_of_int i
  | Int_ref n -> n
  | Binop (op, a, b) when is_arith op ->
      let side min e =
        match e with
        | Binop (op', _, _) when is_arith op' && prec op' < min ->
            "(" ^ int_expr e ^ ")"
        | _ -> int_expr e
      in
      Printf.sprintf "%s %s %s" (side (prec op) a) (arith_op op) (side (prec op + 1) b)
  | To_int e | e -> Printf.sprintf "to_integer(unsigned(%s))" (expr e)

(* an integer operand of a comparison or vector arithmetic *)
and int_operand e =
  match e with
  | Binop _ -> "(" ^ int_expr e ^ ")"
  | _ -> int_expr e

and cond = function
  | Ref n -> Printf.sprintf "%s = '1'" n
  | Bool_lit b -> if b then "true" else "false"
  | Binop (((Eq | Neq) as op), a, b) -> (
      let rel = if op = Eq then "=" else "/=" in
      match (a, b) with
      | _ when is_int a && is_int b ->
          Printf.sprintf "%s %s %s" (int_operand a) rel (int_operand b)
      | _ when is_int a -> cond (Binop (op, b, a))
      | _, Int_lit n -> Printf.sprintf "unsigned(%s) %s %d" (expr a) rel n
      | _ when is_int b ->
          Printf.sprintf "unsigned(%s) %s to_unsigned(%s, %s)" (expr a) rel
            (int_expr b) (length_of a)
      | _, All_zeros ->
          Printf.sprintf "%s %s std_logic_vector(to_unsigned(0, %s))" (expr a) rel
            (length_of a)
      | _ -> Printf.sprintf "%s %s %s" (expr a) rel (expr b))
  | Binop (And, a, b) -> Printf.sprintf "(%s and %s)" (cond a) (cond b)
  | Not e -> Printf.sprintf "not (%s)" (cond e)
  | e when is_int e -> Printf.sprintf "%s /= 0" (int_expr e)
  | e -> Printf.sprintf "unsigned(%s) /= 0" (expr e)

let rec stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Assign (lhs, rhs) ->
      Buffer.add_string buf (Printf.sprintf "%s%s <= %s;\n" pad (expr lhs) (expr rhs))
  | Comment c -> Buffer.add_string buf (Printf.sprintf "%s-- %s\n" pad c)
  | If (branches, else_) ->
      List.iteri
        (fun i (c, body) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s (%s) then\n" pad
               (if i = 0 then "if" else "elsif")
               (cond c));
          List.iter (stmt buf (indent + 2)) body)
        branches;
      if else_ <> [] then begin
        Buffer.add_string buf (pad ^ "else\n");
        List.iter (stmt buf (indent + 2)) else_
      end;
      Buffer.add_string buf (pad ^ "end if;\n")
  | Case (scrutinee, arms) ->
      Buffer.add_string buf (Printf.sprintf "%scase %s is\n" pad (expr scrutinee));
      List.iter
        (fun (choice, body) ->
          let c = match choice with Choice_ref r -> r | Choice_others -> "others" in
          Buffer.add_string buf (Printf.sprintf "%s  when %s =>\n" pad c);
          if body = [] then Buffer.add_string buf (pad ^ "    null;\n")
          else List.iter (stmt buf (indent + 4)) body)
        arms;
      Buffer.add_string buf (pad ^ "end case;\n")

let port_decl p =
  Printf.sprintf "    %-24s : %-3s %s" p.port_name
    (match p.dir with In -> "in" | Out -> "out")
    (type_of_width p.width)

let add_concurrent buf = function
  | Ccomment c -> Buffer.add_string buf (Printf.sprintf "  -- %s\n" c)
  | Cassign (lhs, rhs) ->
      Buffer.add_string buf (Printf.sprintf "  %s <= %s;\n" (expr lhs) (expr rhs))
  | Cassign_cond (lhs, branches, default) ->
      let parts =
        List.map (fun (c, v) -> Printf.sprintf "%s when (%s)" (expr v) (cond c)) branches
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s <= %s else %s;\n" (expr lhs)
           (String.concat " else " parts) (expr default))
  | Instance { inst_name; comp_name; generic_map; port_map } ->
      (* VHDL-93 direct entity instantiation: no component declarations *)
      Buffer.add_string buf (Printf.sprintf "  %s : entity work.%s\n" inst_name comp_name);
      if generic_map <> [] then
        Buffer.add_string buf
          (Printf.sprintf "    generic map (%s)\n"
             (String.concat ", "
                (List.map (fun (k, v) -> Printf.sprintf "%s => %d" k v) generic_map)));
      Buffer.add_string buf "    port map (\n";
      let n = List.length port_map in
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "      %-20s => %s%s\n" k (expr v)
               (if i = n - 1 then "" else ",")))
        port_map;
      Buffer.add_string buf "    );\n"
  | Proc p ->
      let sens =
        if p.clocked then "CLK"
        else if p.sensitivity = [] then "all"
        else String.concat ", " p.sensitivity
      in
      Buffer.add_string buf (Printf.sprintf "  %s : process (%s)\n  begin\n" p.proc_name sens);
      if p.clocked then begin
        Buffer.add_string buf "    if rising_edge(CLK) then\n";
        List.iter (stmt buf 6) p.body;
        Buffer.add_string buf "    end if;\n"
      end
      else List.iter (stmt buf 4) p.body;
      Buffer.add_string buf (Printf.sprintf "  end process %s;\n" p.proc_name)

let constant_decl c =
  match c.const_width with
  | Some w ->
      Printf.sprintf "  constant %-20s : %s := %s;" c.const_name (type_of_width w)
        (expr (Lit (c.const_value, w)))
  | None -> Printf.sprintf "  constant %-20s : integer := %d;" c.const_name c.const_value

let signal_decl s =
  Printf.sprintf "  signal %-22s : %s := %s;" s.sig_name (type_of_width s.sig_width)
    (if s.sig_width = 1 then "'0'" else "(others => '0')")

let to_string (d : design) =
  let buf = Buffer.create 4096 in
  List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "-- %s\n" l)) d.header;
  Buffer.add_string buf
    "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  (* entity *)
  Buffer.add_string buf (Printf.sprintf "entity %s is\n" d.name);
  if d.generics <> [] then begin
    Buffer.add_string buf "  generic (\n";
    let n = List.length d.generics in
    List.iteri
      (fun i g ->
        Buffer.add_string buf
          (Printf.sprintf "    %-24s : integer := %d%s\n" g.gen_name g.gen_default
             (if i = n - 1 then "" else ";")))
      d.generics;
    Buffer.add_string buf "  );\n"
  end;
  if d.ports <> [] then begin
    Buffer.add_string buf "  port (\n";
    let n = List.length d.ports in
    List.iteri
      (fun i p ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s\n" (port_decl p) (if i = n - 1 then "" else ";")))
      d.ports;
    Buffer.add_string buf "  );\n"
  end;
  Buffer.add_string buf (Printf.sprintf "end entity %s;\n\n" d.name);
  (* architecture *)
  Buffer.add_string buf (Printf.sprintf "architecture rtl of %s is\n" d.name);
  List.iter (fun c -> Buffer.add_string buf (constant_decl c ^ "\n")) d.constants;
  List.iter (fun s -> Buffer.add_string buf (signal_decl s ^ "\n")) d.signals;
  Buffer.add_string buf "begin\n";
  List.iter (add_concurrent buf) d.body;
  Buffer.add_string buf "end architecture rtl;\n";
  Buffer.contents buf
