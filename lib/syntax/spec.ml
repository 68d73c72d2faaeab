type io = {
  io_name : string;
  type_words : string list;
  io_width : int;
  signed : bool;
  is_pointer : bool;
  count : Ast.count option;
  is_packed : bool;
  is_dma : bool;
  is_by_ref : bool;
  fields : (string * Ctype.info) list;
  used_as_index : bool;
}

type func = {
  name : string;
  func_id : int;
  instances : int;
  inputs : io list;
  output : io option;
  nowait : bool;
}

type t = {
  device_name : string;
  hdl : Ast.hdl_lang;
  bus_name : string;
  bus_width : int;
  base_address : int64 option;
  burst : bool;
  dma : bool;
  packing : bool;
  interrupts : bool;
  user_types : (string * Ctype.info) list;
  structs : (string * (string * Ctype.info) list) list;
  funcs : func list;
  total_instances : int;
  func_id_width : int;
}

let readbacks f = List.filter (fun io -> io.is_by_ref) f.inputs

let blocking_ack f = f.output = None && not f.nowait && readbacks f = []
let find_func t name = List.find_opt (fun f -> f.name = name) t.funcs

let rec assoc_name name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc_name name rest

let func_of_id t id =
  if id <= 0 then None
  else
    List.find_map
      (fun f ->
        if id >= f.func_id && id < f.func_id + f.instances then
          Some (f, id - f.func_id)
        else None)
      t.funcs

let io_elem_count io ~values =
  match io.count with
  | None -> 1
  | Some (Ast.Fixed n) -> n
  | Some (Ast.Var v) -> values v

let effective_packed t io =
  (io.is_packed || t.packing) && io.count <> None && 2 * io.io_width <= t.bus_width

let base_address_hex t =
  let a = Option.value t.base_address ~default:0L in
  let digits = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.shift_right_logical a (4 * (15 - i)) in
    Bytes.set digits i "0123456789abcdef".[Int64.to_int nibble land 15]
  done;
  let first = ref 0 in
  while !first < 8 && Bytes.get digits !first = '0' do
    incr first
  done;
  Bytes.sub_string digits !first (16 - !first)

let pp_io fmt io =
  Format.fprintf fmt "%s %s%s : %d bits%s%s%s%s%s"
    (String.concat " " io.type_words)
    (if io.is_pointer then "*" else "")
    io.io_name io.io_width
    (match io.count with
    | None -> ""
    | Some (Ast.Fixed n) -> Printf.sprintf " x%d" n
    | Some (Ast.Var v) -> Printf.sprintf " x[%s]" v)
    (if io.is_packed then " packed" else "")
    (if io.is_dma then " dma" else "")
    (if io.is_by_ref then " by-ref" else "")
    (if io.used_as_index then " (index)" else "")

let pp fmt t =
  Format.fprintf fmt "@[<v>device %s on %s (%d-bit" t.device_name t.bus_name
    t.bus_width;
  (match t.base_address with
  | Some a -> Format.fprintf fmt ", base 0x%Lx" a
  | None -> ());
  Format.fprintf fmt ")@,features: burst=%b dma=%b packing=%b interrupts=%b@,"
    t.burst t.dma t.packing t.interrupts;
  List.iter
    (fun f ->
      Format.fprintf fmt "func %s (id %d%s)%s:@," f.name f.func_id
        (if f.instances > 1 then Printf.sprintf "..%d" (f.func_id + f.instances - 1)
         else "")
        (if f.nowait then " nowait" else "");
      List.iter (fun io -> Format.fprintf fmt "  in  %a@," pp_io io) f.inputs;
      match f.output with
      | Some io -> Format.fprintf fmt "  out %a@," pp_io io
      | None ->
          if blocking_ack f then Format.fprintf fmt "  out (blocking ack)@,")
    t.funcs;
  Format.fprintf fmt "@]"
