type info = { width : int; signed : bool }

type env = {
  table : (string * info) list; (* single-word names *)
  users : (string * info) list; (* registration order *)
  structs : (string * (string * info) list) list; (* registration order *)
}

let native =
  [
    ("void", { width = 0; signed = false });
    ("bool", { width = 1; signed = false });
    ("char", { width = 8; signed = true });
    ("short", { width = 16; signed = true });
    ("int", { width = 32; signed = true });
    ("long", { width = 32; signed = true });
    ("unsigned", { width = 32; signed = false });
    ("float", { width = 32; signed = true });
    ("single", { width = 32; signed = true });
    ("double", { width = 64; signed = true });
  ]

let base = { table = native; users = []; structs = [] }

(* [List.assoc_opt]/[List.mem_assoc] over string and word-list keys,
   compared with [String.equal] instead of the polymorphic compare *)
let assoc_by eq key l = List.find_map (fun (k, v) -> if eq k key then Some v else None) l
let assoc_name name l = assoc_by String.equal name l
let mem_name name l = List.exists (fun (k, _) -> String.equal k name) l

let add_user_type env ~name ~width ~signed =
  if mem_name name native then
    Error.failf "%%user_type %s: cannot redefine a native type" name;
  if width < 1 || width > 64 then
    Error.failf "%%user_type %s: width %d outside 1..64" name width;
  let info = { width; signed } in
  {
    env with
    table = (name, info) :: List.filter (fun (k, _) -> not (String.equal k name)) env.table;
    users = env.users @ [ (name, info) ];
  }

(* Multi-word native combinations, resolved before single-word lookup. *)
let multi_word =
  [
    ([ "long"; "long" ], { width = 64; signed = true });
    ([ "unsigned"; "long"; "long" ], { width = 64; signed = false });
    ([ "unsigned"; "long" ], { width = 32; signed = false });
    ([ "unsigned"; "int" ], { width = 32; signed = false });
    ([ "unsigned"; "short" ], { width = 16; signed = false });
    ([ "unsigned"; "char" ], { width = 8; signed = false });
    ([ "signed"; "char" ], { width = 8; signed = true });
    ([ "signed"; "int" ], { width = 32; signed = true });
  ]

let resolve env words =
  match assoc_by (List.equal String.equal) words multi_word with
  | Some info -> Some info
  | None -> (
      match words with
      | [ w ] -> (
          match assoc_name w env.table with
          | Some info -> Some info
          | None -> (
              match assoc_name w env.structs with
              | Some fields ->
                  Some
                    {
                      width =
                        List.fold_left (fun acc (_, i) -> acc + i.width) 0 fields;
                      signed = false;
                    }
              | None -> None))
      | _ -> None)

let add_struct env ~name ~fields =
  if mem_name name native then
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
