open Hdl_ast
open Emit

let add_range b w =
  if w <> 1 then begin
    Buffer.add_char b '[';
    add_int b (w - 1);
    add b ":0] "
  end

let rec expr b = function
  | Ref n | Int_ref n -> add b n
  | Slice (s, hi, lo) ->
      add b s;
      Buffer.add_char b '[';
      add_int b hi;
      Buffer.add_char b ':';
      add_int b lo;
      Buffer.add_char b ']'
  | Lit (v, w) ->
      add_int b w;
      add b "'d";
      add_int b v
  | Int_lit i -> add_int b i
  | To_int e -> expr b e
  | Bool_lit v -> add b (if v then "1'b1" else "1'b0")
  | All_zeros -> Buffer.add_char b '0' (* an unsized 0 zero-extends to its context's width *)
  | Binop (op, x, y) ->
      Buffer.add_char b '(';
      expr b x;
      add b
        (match op with
        | And -> " & " | Eq -> " == " | Neq -> " != "
        | Add -> " + " | Sub -> " - " | Mul -> " * " | Div -> " / ");
      expr b y;
      Buffer.add_char b ')'
  | Not e ->
      add b "(~";
      expr b e;
      Buffer.add_char b ')'
  | Concat es ->
      Buffer.add_char b '{';
      add_sep b ", " (expr b) es;
      Buffer.add_char b '}'

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
      add b "// ";
      add b c;
      Buffer.add_char b '\n'
  | If (branches, else_) ->
      List.iteri
        (fun i (c, body) ->
          spaces b indent;
          add b (if i = 0 then "if (" else "end else if (");
          expr b c;
          add b ") begin\n";
          List.iter (stmt b (indent + 2)) body)
        branches;
      if else_ <> [] then begin
        spaces b indent;
        add b "end else begin\n";
        List.iter (stmt b (indent + 2)) else_
      end;
      spaces b indent;
      add b "end\n"
  | Case (scrutinee, arms) ->
      spaces b indent;
      add b "case (";
      expr b scrutinee;
      add b ")\n";
      List.iter
        (fun (choice, body) ->
          spaces b (indent + 2);
          add b (match choice with Choice_ref r -> r | Choice_others -> "default");
          add b ": begin\n";
          List.iter (stmt b (indent + 4)) body;
          spaces b (indent + 2);
          add b "end\n")
        arms;
      spaces b indent;
      add b "endcase\n"

(* which nets are assigned inside processes (must be reg) *)
let reg_targets d =
  let regs = Hashtbl.create 16 in
  let root = function Ref n | Slice (n, _, _) -> Some n | _ -> None in
  let rec scan = function
    | Assign (lhs, _) -> (
        match root lhs with Some n -> Hashtbl.replace regs n () | None -> ())
    | If (bs, e) ->
        List.iter (fun (_, ss) -> List.iter scan ss) bs;
        List.iter scan e
    | Case (_, arms) -> List.iter (fun (_, ss) -> List.iter scan ss) arms
    | Comment _ -> ()
  in
  List.iter (function Proc p -> List.iter scan p.body | _ -> ()) d.body;
  regs

let concurrent b = function
  | Ccomment c ->
      add b "  // ";
      add b c;
      Buffer.add_char b '\n'
  | Cassign (lhs, rhs) ->
      add b "  assign ";
      expr b lhs;
      add b " = ";
      expr b rhs;
      add b ";\n"
  | Cassign_cond (lhs, branches, default) ->
      add b "  assign ";
      expr b lhs;
      add b " = ";
      List.iter
        (fun (c, v) ->
          Buffer.add_char b '(';
          expr b c;
          add b ") ? ";
          expr b v;
          add b " : ")
        branches;
      expr b default;
      add b ";\n"
  | Instance { inst_name; comp_name; generic_map; port_map } ->
      add b "  ";
      add b comp_name;
      if generic_map <> [] then begin
        add b " #(";
        add_sep b ", "
          (fun (k, v) ->
            Buffer.add_char b '.';
            add b k;
            Buffer.add_char b '(';
            add_int b v;
            Buffer.add_char b ')')
          generic_map;
        Buffer.add_char b ')'
      end;
      Buffer.add_char b ' ';
      add b inst_name;
      add b " (\n";
      let last = List.length port_map - 1 in
      List.iteri
        (fun i (k, v) ->
          add b "    .";
          add b k;
          Buffer.add_char b '(';
          expr b v;
          add b (if i = last then ")\n" else "),\n"))
        port_map;
      add b "  );\n"
  | Proc p ->
      add b "  always @(";
      if p.clocked then add b "posedge CLK"
      else if p.sensitivity = [] then Buffer.add_char b '*'
      else add_sep b " or " (add b) p.sensitivity;
      add b ") begin : ";
      add b p.proc_name;
      Buffer.add_char b '\n';
      List.iter (stmt b 4) p.body;
      add b "  end\n"

let add_design b (d : design) =
  List.iter
    (fun l ->
      add b "// ";
      add b l;
      Buffer.add_char b '\n')
    d.header;
  let regs = reg_targets d in
  add b "module ";
  add b d.name;
  if d.generics <> [] then begin
    add b " #(\n";
    add_sep b ",\n"
      (fun g ->
        add b "  parameter ";
        add b g.gen_name;
        add b " = ";
        add_int b g.gen_default)
      d.generics;
    add b "\n)"
  end;
  add b " (\n";
  let last = List.length d.ports - 1 in
  List.iteri
    (fun i p ->
      add b
        (match p.dir with
        | In -> "  input "
        | Out -> if Hashtbl.mem regs p.port_name then "  output reg " else "  output ");
      add_range b p.width;
      add b p.port_name;
      add b (if i = last then "\n" else ",\n"))
    d.ports;
  add b ");\n\n";
  List.iter
    (fun c ->
      add b "  localparam ";
      (match c.const_width with
      | Some w ->
          add_range b w;
          add b c.const_name;
          add b " = ";
          add_int b w;
          add b "'d"
      | None ->
          add b c.const_name;
          add b " = ");
      add_int b c.const_value;
      add b ";\n")
    d.constants;
  List.iter
    (fun s ->
      add b (if Hashtbl.mem regs s.sig_name then "  reg " else "  wire ");
      add_range b s.sig_width;
      add b s.sig_name;
      add b ";\n")
    d.signals;
  Buffer.add_char b '\n';
  List.iter (concurrent b) d.body;
  add b "\nendmodule\n"

let to_string d = render (fun b -> add_design b d)
let expr e = render (fun b -> expr b e)
