open Hdl_ast

let range_of_width w = if w = 1 then "" else Printf.sprintf "[%d:0] " (w - 1)

let rec expr = function
  | Ref n | Int_ref n -> n
  | Slice (s, hi, lo) -> Printf.sprintf "%s[%d:%d]" s hi lo
  | Lit (v, w) -> Printf.sprintf "%d'd%d" w v
  | Int_lit i -> string_of_int i
  | To_int e -> expr e
  | Bool_lit b -> if b then "1'b1" else "1'b0"
  | All_zeros -> "0" (* an unsized 0 zero-extends to its context's width *)
  | Binop (op, a, b) ->
      let s =
        match op with
        | And -> "&" | Eq -> "==" | Neq -> "!="
        | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
      in
      Printf.sprintf "(%s %s %s)" (expr a) s (expr b)
  | Not e -> Printf.sprintf "(~%s)" (expr e)
  | Concat es -> Printf.sprintf "{%s}" (String.concat ", " (List.map expr es))

let rec stmt buf indent s =
  let pad = String.make indent ' ' in
  match s with
  | Assign (lhs, rhs) ->
      Buffer.add_string buf (Printf.sprintf "%s%s <= %s;\n" pad (expr lhs) (expr rhs))
  | Comment c -> Buffer.add_string buf (Printf.sprintf "%s// %s\n" pad c)
  | If (branches, else_) ->
      List.iteri
        (fun i (c, body) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s (%s) begin\n" pad
               (if i = 0 then "if" else "end else if")
               (expr c));
          List.iter (stmt buf (indent + 2)) body)
        branches;
      if else_ <> [] then begin
        Buffer.add_string buf (pad ^ "end else begin\n");
        List.iter (stmt buf (indent + 2)) else_
      end;
      Buffer.add_string buf (pad ^ "end\n")
  | Case (scrutinee, arms) ->
      Buffer.add_string buf (Printf.sprintf "%scase (%s)\n" pad (expr scrutinee));
      List.iter
        (fun (choice, body) ->
          let c = match choice with Choice_ref r -> r | Choice_others -> "default" in
          Buffer.add_string buf (Printf.sprintf "%s  %s: begin\n" pad c);
          List.iter (stmt buf (indent + 4)) body;
          Buffer.add_string buf (Printf.sprintf "%s  end\n" pad))
        arms;
      Buffer.add_string buf (pad ^ "endcase\n")

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

let concurrent buf = function
  | Ccomment c -> Buffer.add_string buf (Printf.sprintf "  // %s\n" c)
  | Cassign (lhs, rhs) ->
      Buffer.add_string buf (Printf.sprintf "  assign %s = %s;\n" (expr lhs) (expr rhs))
  | Cassign_cond (lhs, branches, default) ->
      let rec chain = function
        | [] -> expr default
        | (c, v) :: rest -> Printf.sprintf "(%s) ? %s : %s" (expr c) (expr v) (chain rest)
      in
      Buffer.add_string buf
        (Printf.sprintf "  assign %s = %s;\n" (expr lhs) (chain branches))
  | Instance { inst_name; comp_name; generic_map; port_map } ->
      Buffer.add_string buf (Printf.sprintf "  %s" comp_name);
      if generic_map <> [] then
        Buffer.add_string buf
          (Printf.sprintf " #(%s)"
             (String.concat ", "
                (List.map (fun (k, v) -> Printf.sprintf ".%s(%d)" k v) generic_map)));
      Buffer.add_string buf (Printf.sprintf " %s (\n" inst_name);
      let n = List.length port_map in
      List.iteri
        (fun i (k, v) ->
          Buffer.add_string buf
            (Printf.sprintf "    .%s(%s)%s\n" k (expr v) (if i = n - 1 then "" else ",")))
        port_map;
      Buffer.add_string buf "  );\n"
  | Proc p ->
      let trigger =
        if p.clocked then "posedge CLK"
        else if p.sensitivity = [] then "*"
        else String.concat " or " p.sensitivity
      in
      Buffer.add_string buf (Printf.sprintf "  always @(%s) begin : %s\n" trigger p.proc_name);
      List.iter (stmt buf 4) p.body;
      Buffer.add_string buf "  end\n"

let to_string (d : design) =
  let buf = Buffer.create 4096 in
  List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "// %s\n" l)) d.header;
  let regs = reg_targets d in
  Buffer.add_string buf (Printf.sprintf "module %s" d.name);
  if d.generics <> [] then begin
    Buffer.add_string buf " #(\n";
    let n = List.length d.generics in
    List.iteri
      (fun i g ->
        Buffer.add_string buf
          (Printf.sprintf "  parameter %s = %d%s\n" g.gen_name g.gen_default
             (if i = n - 1 then "" else ",")))
      d.generics;
    Buffer.add_string buf ")"
  end;
  Buffer.add_string buf " (\n";
  let n = List.length d.ports in
  List.iteri
    (fun i p ->
      let kind =
        match p.dir with
        | In -> "input "
        | Out -> if Hashtbl.mem regs p.port_name then "output reg " else "output "
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s%s%s%s\n" kind (range_of_width p.width) p.port_name
           (if i = n - 1 then "" else ",")))
    d.ports;
  Buffer.add_string buf ");\n\n";
  List.iter
    (fun c ->
      match c.const_width with
      | Some w ->
          Buffer.add_string buf
            (Printf.sprintf "  localparam %s%s = %d'd%d;\n" (range_of_width w)
               c.const_name w c.const_value)
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "  localparam %s = %d;\n" c.const_name c.const_value))
    d.constants;
  List.iter
    (fun s ->
      let kind = if Hashtbl.mem regs s.sig_name then "reg " else "wire " in
      Buffer.add_string buf
        (Printf.sprintf "  %s%s%s;\n" kind (range_of_width s.sig_width) s.sig_name))
    d.signals;
  Buffer.add_string buf "\n";
  List.iter (concurrent buf) d.body;
  Buffer.add_string buf "\nendmodule\n";
  Buffer.contents buf
