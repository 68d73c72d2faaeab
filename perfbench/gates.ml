(* Output gates: the values each workload's outputs must reproduce. *)

(* [splice eval --digest] on the Fig 9.2 grid (5 implementations x 4
   scenarios, 3,101 simulated cycles). The grid has no random inputs, so
   every correct build prints this. *)
let eval_digest = 0x104db98f350ed66aL

(* Check one measured Fig 9.2 grid against [pinned]; returns the
   simulated cycles it covered. *)
let check_grid ?(pinned = eval_digest) tally rows =
  Report.check_digest tally ~what:"eval grid" ~expected:pinned
    ~got:(Splice.Cycles.digest rows);
  List.fold_left (fun acc r -> acc + r.Splice.Cycles.total) 0 rows

(* The digest [splice fuzz ... -q] prints on its last line. *)
let cli_fuzz_digest output =
  String.split_on_char '\n' output
  |> List.find_map (fun l ->
         match String.split_on_char ' ' (String.trim l) with
         | [ "digest"; hex ] -> Int64.of_string_opt hex
         | _ -> None)

(* Order-sensitive digest of generated projects: paths and contents. *)
let projects_digest (projects : Splice.Project.t list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      List.iter
        (fun (f : Splice.Project.file) ->
          Buffer.add_string b f.path;
          Buffer.add_char b '\000';
          Buffer.add_string b (Digest.string f.contents))
        (Splice.Project.files p))
    projects;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Lint every generated VHDL and C file of [p]; returns the issues. *)
let lint_project (p : Splice.Project.t) =
  List.concat_map
    (fun (f : Splice.Project.file) ->
      let suffix = Filename.check_suffix f.path in
      if suffix ".vhd" then
        List.map
          (fun i -> Format.asprintf "%s: %a" f.path Splice.Vhdl_lint.pp_issue i)
          (Splice.Vhdl_lint.lint f.contents)
      else if suffix ".c" || suffix ".h" then
        List.map
          (fun i -> Format.asprintf "%s: %a" f.path Splice.C_lint.pp_issue i)
          (Splice.C_lint.lint ~header:(suffix ".h") f.contents)
      else [])
    (Splice.Project.files p)
