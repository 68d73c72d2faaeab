exception Unknown_marker of { marker : string; known : string list }

let is_marker_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* [on_marker name start stop] for each [%NAME%] in [src], in order, with
   [src.[start]] its opening and [src.[stop]] its closing '%' *)
let scan src on_marker =
  let n = String.length src in
  let rec from i =
    match String.index_from_opt src i '%' with
    | None -> ()
    | Some i ->
        let j = ref (i + 1) in
        while !j < n && is_marker_char src.[!j] do
          incr j
        done;
        if !j > i + 1 && !j < n && src.[!j] = '%' then begin
          on_marker (String.sub src (i + 1) (!j - i - 1)) i !j;
          from (!j + 1)
        end
        else from (i + 1)
  in
  from 0

(* Replace each marker by [f]'s text ([None] keeps the original text),
   copying each run between markers with one blit. *)
let substitute f src =
  let buf = Buffer.create (String.length src) in
  let copied = ref 0 in
  scan src (fun name start stop ->
      match f name with
      | Some repl ->
          Buffer.add_substring buf src !copied (start - !copied);
          Buffer.add_string buf repl;
          copied := stop + 1
      | None -> ());
  Buffer.add_substring buf src !copied (String.length src - !copied);
  Buffer.contents buf

let markers_in src =
  let seen = ref [] in
  scan src (fun name _ _ -> if not (List.mem name !seen) then seen := name :: !seen);
  List.rev !seen

let lookup markers name =
  (* later bindings shadow earlier ones *)
  let rec go acc = function
    | [] -> acc
    | (k, v) :: rest -> go (if String.equal k name then Some v else acc) rest
  in
  go None markers

let expand ~markers src =
  substitute
    (fun name ->
      match lookup markers name with
      | Some v -> Some v
      | None -> raise (Unknown_marker { marker = name; known = List.map fst markers }))
    src

let expand_partial ~markers src = substitute (lookup markers) src
