type binop = And | Eq | Neq | Add | Sub | Mul | Div

type expr =
  | Ref of string
  | Slice of string * int * int
  | Lit of int * int
  | Int_lit of int
  | Int_ref of string
  | To_int of expr
  | Bool_lit of bool
  | All_zeros
  | Binop of binop * expr * expr
  | Not of expr
  | Concat of expr list

type case_choice = Choice_ref of string | Choice_others

type stmt =
  | Assign of expr * expr
  | If of (expr * stmt list) list * stmt list
  | Case of expr * (case_choice * stmt list) list
  | Comment of string

type dir = In | Out

type port = { port_name : string; dir : dir; width : int }
type generic = { gen_name : string; gen_default : int }
type signal_decl = { sig_name : string; sig_width : int }
type constant_decl = { const_name : string; const_width : int option; const_value : int }

type process = {
  proc_name : string;
  clocked : bool;
  sensitivity : string list;
  body : stmt list;
}

type concurrent =
  | Proc of process
  | Cassign of expr * expr
  | Cassign_cond of expr * (expr * expr) list * expr
  | Instance of {
      inst_name : string;
      comp_name : string;
      generic_map : (string * int) list;
      port_map : (string * expr) list;
    }
  | Ccomment of string

type design = {
  header : string list;
  name : string;
  generics : generic list;
  ports : port list;
  constants : constant_decl list;
  signals : signal_decl list;
  body : concurrent list;
}

let clk_port = { port_name = "CLK"; dir = In; width = 1 }
let rst_port = { port_name = "RST"; dir = In; width = 1 }

let validate d =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let check_unique what names =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then err "duplicate %s %s in %s" what n d.name
        else Hashtbl.add tbl n ())
      names
  in
  check_unique "port" (List.map (fun p -> p.port_name) d.ports);
  check_unique "signal" (List.map (fun s -> s.sig_name) d.signals);
  check_unique "constant" (List.map (fun c -> c.const_name) d.constants);
  List.iter
    (fun p -> if p.width < 1 then err "port %s has width %d" p.port_name p.width)
    d.ports;
  List.iter
    (fun s -> if s.sig_width < 1 then err "signal %s has width %d" s.sig_name s.sig_width)
    d.signals;
  let rec check_stmt = function
    | If (branches, _) ->
        if branches = [] then err "empty if in %s" d.name;
        List.iter (fun (_, ss) -> List.iter check_stmt ss) branches
    | Case (_, arms) ->
        if arms = [] then err "empty case in %s" d.name;
        List.iter (fun (_, ss) -> List.iter check_stmt ss) arms
    | Assign _ | Comment _ -> ()
  in
  List.iter
    (function
      | Proc p -> List.iter check_stmt p.body
      | Cassign _ | Cassign_cond _ | Instance _ | Ccomment _ -> ())
    d.body;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
