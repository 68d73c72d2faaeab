exception Unknown_marker of { marker : string; known : string list }

let is_marker_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* A template split once at its markers: [lits.(i)] is the literal run
   before marker [names.(i)], and the last run follows the last marker. *)
type t = { lits : string array; names : string array; distinct : string list }

let parse src =
  let n = String.length src in
  let lits = ref [] and names = ref [] and copied = ref 0 in
  (* each [%NAME%] in order: [i] is its opening '%', [j] its closing one *)
  let rec from i =
    match String.index_from_opt src i '%' with
    | None -> ()
    | Some i ->
        let j = ref (i + 1) in
        while !j < n && is_marker_char src.[!j] do
          incr j
        done;
        if !j > i + 1 && !j < n && src.[!j] = '%' then begin
          lits := String.sub src !copied (i - !copied) :: !lits;
          names := String.sub src (i + 1) (!j - i - 1) :: !names;
          copied := !j + 1;
          from (!j + 1)
        end
        else from (i + 1)
  in
  from 0;
  let names = List.rev !names in
  {
    lits = Array.of_list (List.rev (String.sub src !copied (n - !copied) :: !lits));
    names = Array.of_list names;
    distinct =
      List.rev
        (List.fold_left
           (fun seen m -> if List.exists (String.equal m) seen then seen else m :: seen)
           [] names);
  }

let markers t = t.distinct

(* one string of the exact length: each marker's text is looked up once,
   then every run and value is blitted into place *)
let fill t value =
  let values = Array.map value t.names in
  let len = ref 0 in
  Array.iter (fun s -> len := !len + String.length s) t.lits;
  Array.iter (fun s -> len := !len + String.length s) values;
  let out = Bytes.create !len and pos = ref 0 in
  let put s =
    Bytes.blit_string s 0 out !pos (String.length s);
    pos := !pos + String.length s
  in
  Array.iteri
    (fun i lit ->
      put lit;
      if i < Array.length values then put values.(i))
    t.lits;
  Bytes.unsafe_to_string out

let lookup markers name =
  (* later bindings shadow earlier ones *)
  let rec go acc = function
    | [] -> acc
    | (k, v) :: rest -> go (if String.equal k name then Some v else acc) rest
  in
  go None markers

let render ~markers t =
  fill t (fun name ->
      match lookup markers name with
      | Some v -> v
      | None -> raise (Unknown_marker { marker = name; known = List.map fst markers }))

let render_partial ~markers t =
  fill t (fun name ->
      match lookup markers name with Some v -> v | None -> String.concat "" [ "%"; name; "%" ])

let markers_in src = markers (parse src)
let expand ~markers src = render ~markers (parse src)
let expand_partial ~markers src = render_partial ~markers (parse src)
