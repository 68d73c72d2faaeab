type info = { width : int; signed : bool }

type env = {
  table : (string * info) list; (* user type names, newest first *)
  users : (string * info) list; (* registration order *)
  structs : (string * (string * info) list) list; (* registration order *)
}

(* The single-word native types. *)
let native = function
  | "void" -> Some { width = 0; signed = false }
  | "bool" -> Some { width = 1; signed = false }
  | "char" -> Some { width = 8; signed = true }
  | "short" -> Some { width = 16; signed = true }
  | "int" | "long" | "float" | "single" -> Some { width = 32; signed = true }
  | "unsigned" -> Some { width = 32; signed = false }
  | "double" -> Some { width = 64; signed = true }
  | _ -> None

(* Multi-word native combinations. *)
let multi_word = function
  | [ "long"; "long" ] -> Some { width = 64; signed = true }
  | [ "unsigned"; "long"; "long" ] -> Some { width = 64; signed = false }
  | [ "unsigned"; ("long" | "int") ] -> Some { width = 32; signed = false }
  | [ "unsigned"; "short" ] -> Some { width = 16; signed = false }
  | [ "unsigned"; "char" ] -> Some { width = 8; signed = false }
  | [ "signed"; "char" ] -> Some { width = 8; signed = true }
  | [ "signed"; "int" ] -> Some { width = 32; signed = true }
  | _ -> None

let base = { table = []; users = []; structs = [] }

(* [List.assoc_opt]/[List.mem_assoc] over string keys, compared with
   [String.equal] instead of the polymorphic compare *)
let rec assoc_name name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc_name name rest

let mem_name name l = List.exists (fun (k, _) -> String.equal k name) l

let add_user_type env ~name ~width ~signed =
  if Option.is_some (native name) then
    Error.failf "%%user_type %s: cannot redefine a native type" name;
  if width < 1 || width > 64 then
    Error.failf "%%user_type %s: width %d outside 1..64" name width;
  let info = { width; signed } in
  {
    env with
    table = (name, info) :: List.filter (fun (k, _) -> not (String.equal k name)) env.table;
    users = env.users @ [ (name, info) ];
  }

(* Natives and user types never share a name (add_user_type refuses it),
   so looking natives up first finds what the one merged table found. *)
let resolve env = function
  | [ w ] -> (
      match native w with
      | Some _ as info -> info
      | None -> (
          match assoc_name w env.table with
          | Some _ as info -> info
          | None -> (
              match assoc_name w env.structs with
              | Some fields ->
                  Some
                    {
                      width = List.fold_left (fun acc (_, i) -> acc + i.width) 0 fields;
                      signed = false;
                    }
              | None -> None)))
  | words -> multi_word words

let add_struct env ~name ~fields =
  if Option.is_some (native name) then
    Error.failf "%%user_struct %s: cannot redefine a native type" name;
  if mem_name name env.table || mem_name name env.structs then
    Error.failf "%%user_struct %s: name already defined" name;
  if fields = [] then Error.failf "%%user_struct %s: no fields" name;
  List.iter
    (fun (fname, (i : info)) ->
      if i.width < 1 || i.width > 64 then
        Error.failf "%%user_struct %s: field %s is %d bits (1..64 allowed)"
          name fname i.width)
    fields;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (fname, _) ->
      if Hashtbl.mem seen fname then
        Error.failf "%%user_struct %s: duplicate field %s" name fname
      else Hashtbl.add seen fname ())
    fields;
  { env with structs = env.structs @ [ (name, fields) ] }

let struct_fields env name = assoc_name name env.structs
let structs env = env.structs

let user_types env = env.users
