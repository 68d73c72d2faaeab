open Splice_obs

(* A bin is a named inclusive range: value bins are degenerate ranges,
   transition bins reuse (lo, hi) as (from, to), cross bins are the row-major
   product of the two axes. Counts live in a flat array next to the
   descriptors so sampling touches one cache line and no hash table. *)
type binr = { b_name : string; b_lo : int; b_hi : int }

type pkind =
  | P_bins
  | P_trans
  | P_cross of { cx_a : binr array; cx_b : binr array }

type point = {
  p_name : string;
  p_kind : pkind;
  p_bins : binr array;
  p_counts : int array;
}

type group = { g_name : string; g_points : (string, point) Hashtbl.t }
type t = { c_groups : (string, group) Hashtbl.t }

type bins =
  | Values of (string * int) list
  | Ranges of (string * int * int) list
  | Transitions of (string * int * int) list

let create () = { c_groups = Hashtbl.create 7 }

let group t name =
  match Hashtbl.find_opt t.c_groups name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_points = Hashtbl.create 7 } in
      Hashtbl.add t.c_groups name g;
      g

let binr_eq a b = a.b_name = b.b_name && a.b_lo = b.b_lo && a.b_hi = b.b_hi

let same_shape p q =
  p.p_name = q.p_name
  && Array.length p.p_bins = Array.length q.p_bins
  && Array.for_all2 binr_eq p.p_bins q.p_bins
  &&
  match (p.p_kind, q.p_kind) with
  | P_bins, P_bins | P_trans, P_trans -> true
  | P_cross a, P_cross b ->
      Array.length a.cx_a = Array.length b.cx_a
      && Array.length a.cx_b = Array.length b.cx_b
      && Array.for_all2 binr_eq a.cx_a b.cx_a
      && Array.for_all2 binr_eq a.cx_b b.cx_b
  | _ -> false

let intern g p =
  match Hashtbl.find_opt g.g_points p.p_name with
  | Some q ->
      if same_shape p q then q
      else
        invalid_arg
          (Printf.sprintf "Cover: point %s/%s re-declared with different bins"
             g.g_name p.p_name)
  | None ->
      Hashtbl.add g.g_points p.p_name p;
      p

let point g name spec =
  let kind, descs =
    match spec with
    | Values vs ->
        (P_bins, List.map (fun (n, v) -> { b_name = n; b_lo = v; b_hi = v }) vs)
    | Ranges rs ->
        ( P_bins,
          List.map (fun (n, lo, hi) -> { b_name = n; b_lo = lo; b_hi = hi }) rs
        )
    | Transitions ts ->
        ( P_trans,
          List.map (fun (n, f, t_) -> { b_name = n; b_lo = f; b_hi = t_ }) ts
        )
  in
  let bins = Array.of_list descs in
  intern g
    { p_name = name; p_kind = kind; p_bins = bins;
      p_counts = Array.make (Array.length bins) 0 }

let cross g name pa pb =
  (match (pa.p_kind, pb.p_kind) with
  | P_bins, P_bins -> ()
  | _ -> invalid_arg "Cover.cross: both axes must be value/range points");
  let prod =
    Array.init
      (Array.length pa.p_bins * Array.length pb.p_bins)
      (fun k ->
        let a = pa.p_bins.(k / Array.length pb.p_bins) in
        let b = pb.p_bins.(k mod Array.length pb.p_bins) in
        { b_name = a.b_name ^ "*" ^ b.b_name; b_lo = 0; b_hi = 0 })
  in
  intern g
    {
      p_name = name;
      p_kind =
        P_cross { cx_a = Array.copy pa.p_bins; cx_b = Array.copy pb.p_bins };
      p_bins = prod;
      p_counts = Array.make (Array.length prod) 0;
    }

(* ---- sampling ---------------------------------------------------- *)

let find_bin bins v =
  let n = Array.length bins in
  let rec go i =
    if i >= n then -1
    else if v >= bins.(i).b_lo && v <= bins.(i).b_hi then i
    else go (i + 1)
  in
  go 0

let sample p v =
  match p.p_kind with
  | P_bins ->
      let i = find_bin p.p_bins v in
      if i >= 0 then p.p_counts.(i) <- p.p_counts.(i) + 1
  | P_trans | P_cross _ ->
      invalid_arg "Cover.sample: point is not a value/range point"

let sample_pair p ~from_ ~to_ =
  match p.p_kind with
  | P_trans ->
      let n = Array.length p.p_bins in
      let rec go i =
        if i < n then
          if p.p_bins.(i).b_lo = from_ && p.p_bins.(i).b_hi = to_ then
            p.p_counts.(i) <- p.p_counts.(i) + 1
          else go (i + 1)
      in
      go 0
  | P_bins | P_cross _ ->
      invalid_arg "Cover.sample_pair: point is not a transition point"

let sample2 p va vb =
  match p.p_kind with
  | P_cross { cx_a; cx_b } ->
      let ia = find_bin cx_a va in
      if ia >= 0 then begin
        let ib = find_bin cx_b vb in
        if ib >= 0 then begin
          let k = (ia * Array.length cx_b) + ib in
          p.p_counts.(k) <- p.p_counts.(k) + 1
        end
      end
  | P_bins | P_trans -> invalid_arg "Cover.sample2: point is not a cross"

(* ---- reading ----------------------------------------------------- *)

let group_name g = g.g_name

let groups t =
  Hashtbl.fold (fun _ g acc -> g :: acc) t.c_groups []
  |> List.sort (fun a b -> compare a.g_name b.g_name)

let points g =
  Hashtbl.fold (fun _ p acc -> p :: acc) g.g_points []
  |> List.sort (fun a b -> compare a.p_name b.p_name)

let find_group t name = Hashtbl.find_opt t.c_groups name
let find_point g name = Hashtbl.find_opt g.g_points name

let bins p =
  Array.to_list (Array.mapi (fun i b -> (b.b_name, p.p_counts.(i))) p.p_bins)

let bin_ranges p =
  Array.to_list
    (Array.mapi (fun i b -> (b.b_name, b.b_lo, b.b_hi, p.p_counts.(i))) p.p_bins)

let cross_bins p =
  match p.p_kind with
  | P_cross { cx_a; cx_b } ->
      let nb = Array.length cx_b in
      Array.to_list
        (Array.mapi
           (fun k c ->
             let a = cx_a.(k / nb) and b = cx_b.(k mod nb) in
             ((a.b_name, a.b_lo, a.b_hi), (b.b_name, b.b_lo, b.b_hi), c))
           p.p_counts)
  | P_bins | P_trans -> invalid_arg "Cover.cross_bins: point is not a cross"

let hit p = Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 p.p_counts
let total p = Array.length p.p_counts

let totals ?prefix ?points:pnames t =
  let keep_group g =
    match prefix with
    | None -> true
    | Some pre -> String.starts_with ~prefix:pre g.g_name
  in
  let keep_point p =
    match pnames with None -> true | Some ns -> List.mem p.p_name ns
  in
  List.fold_left
    (fun acc g ->
      if not (keep_group g) then acc
      else
        List.fold_left
          (fun (h, t_) p ->
            if keep_point p then (h + hit p, t_ + total p) else (h, t_))
          acc (points g))
    (0, 0) (groups t)

(* ---- merge ------------------------------------------------------- *)

let copy_point p =
  {
    p with
    p_counts = Array.copy p.p_counts;
    p_kind =
      (match p.p_kind with
      | P_cross { cx_a; cx_b } ->
          P_cross { cx_a = Array.copy cx_a; cx_b = Array.copy cx_b }
      | k -> k);
  }

let merge_into ~into src =
  List.iter
    (fun sg ->
      let dg = group into sg.g_name in
      List.iter
        (fun sp ->
          match Hashtbl.find_opt dg.g_points sp.p_name with
          | None -> Hashtbl.add dg.g_points sp.p_name (copy_point sp)
          | Some dp ->
              if not (same_shape sp dp) then
                invalid_arg
                  (Printf.sprintf
                     "Cover.merge_into: point %s/%s has different bins"
                     sg.g_name sp.p_name);
              Array.iteri
                (fun i c -> dp.p_counts.(i) <- dp.p_counts.(i) + c)
                sp.p_counts)
        (points sg))
    (groups src)

(* ---- serialization ----------------------------------------------- *)

let version = 1

let json_of_binr b c =
  Json.Obj
    [ ("n", Json.String b.b_name); ("lo", Json.Int b.b_lo);
      ("hi", Json.Int b.b_hi); ("c", Json.Int c) ]

let json_of_axis bins =
  Json.List
    (Array.to_list
       (Array.map
          (fun b ->
            Json.Obj
              [ ("n", Json.String b.b_name); ("lo", Json.Int b.b_lo);
                ("hi", Json.Int b.b_hi) ])
          bins))

let json_of_point p =
  let kind =
    match p.p_kind with
    | P_bins -> "bins"
    | P_trans -> "trans"
    | P_cross _ -> "cross"
  in
  let base =
    [ ("name", Json.String p.p_name); ("kind", Json.String kind);
      ("bins",
       Json.List
         (Array.to_list
            (Array.mapi (fun i b -> json_of_binr b p.p_counts.(i)) p.p_bins)))
    ]
  in
  match p.p_kind with
  | P_cross { cx_a; cx_b } ->
      Json.Obj (base @ [ ("a", json_of_axis cx_a); ("b", json_of_axis cx_b) ])
  | P_bins | P_trans -> Json.Obj base

let to_json t =
  Json.Obj
    [ ("splice_cover", Json.Int version);
      ("groups",
       Json.List
         (List.map
            (fun g ->
              Json.Obj
                [ ("name", Json.String g.g_name);
                  ("points", Json.List (List.map json_of_point (points g))) ])
            (groups t))) ]

let ( let* ) = Result.bind

let jlist name j =
  match Option.bind (Json.member name j) Json.to_list with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing list field %S" name)

let binr_of_json j =
  let* n = Json.str_field "n" j in
  let* lo = Json.int_field "lo" j in
  let* hi = Json.int_field "hi" j in
  Ok { b_name = n; b_lo = lo; b_hi = hi }

let point_of_json j =
  let* name = Json.str_field "name" j in
  let* kind = Json.str_field "kind" j in
  let* bjs = jlist "bins" j in
  let* descs =
    Json.map_result
      (fun bj ->
        let* b = binr_of_json bj in
        let* c = Json.int_field "c" bj in
        Ok (b, c))
      bjs
  in
  let bins = Array.of_list (List.map fst descs) in
  let counts = Array.of_list (List.map snd descs) in
  let* pkind =
    match kind with
    | "bins" -> Ok P_bins
    | "trans" -> Ok P_trans
    | "cross" ->
        let* aj = jlist "a" j in
        let* bj = jlist "b" j in
        let* a = Json.map_result binr_of_json aj in
        let* b = Json.map_result binr_of_json bj in
        Ok (P_cross { cx_a = Array.of_list a; cx_b = Array.of_list b })
    | k -> Error (Printf.sprintf "unknown point kind %S" k)
  in
  (match pkind with
  | P_cross { cx_a; cx_b }
    when Array.length cx_a * Array.length cx_b <> Array.length bins ->
      Error "cross bin count does not match its axes"
  | _ -> Ok ())
  |> Result.map (fun () ->
         { p_name = name; p_kind = pkind; p_bins = bins; p_counts = counts })

let of_json j =
  let* v = Json.int_field "splice_cover" j in
  if v <> version then
    Error (Printf.sprintf "unsupported coverage map version %d" v)
  else
    let* gjs = jlist "groups" j in
    let t = create () in
    let* () =
      List.fold_left
        (fun acc gj ->
          let* () = acc in
          let* gname = Json.str_field "name" gj in
          let* pjs = jlist "points" gj in
          let g = group t gname in
          List.fold_left
            (fun acc pj ->
              let* () = acc in
              let* p = point_of_json pj in
              ignore (intern g p);
              Ok ())
            (Ok ()) pjs)
        (Ok ()) gjs
    in
    Ok t

let to_string t = Json.to_string (to_json t)

let of_string s =
  match Json.of_string s with Error e -> Error e | Ok j -> of_json j

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error (path ^ ": truncated file")
  | s -> (
      match of_string s with
      | Ok t -> Ok t
      | Error e -> Error (path ^ ": " ^ e))

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

(* ---- report ------------------------------------------------------ *)

let pct h t = if t = 0 then 100.0 else 100.0 *. float_of_int h /. float_of_int t

let report t =
  let b = Buffer.create 1024 in
  let h, tot = totals t in
  Buffer.add_string b
    (Printf.sprintf "functional coverage: %d/%d bins (%.1f%%)\n" h tot
       (pct h tot));
  List.iter
    (fun g ->
      let gh, gt =
        List.fold_left
          (fun (h, t_) p -> (h + hit p, t_ + total p))
          (0, 0) (points g)
      in
      Buffer.add_string b
        (Printf.sprintf "\ngroup %s: %d/%d bins (%.1f%%)\n" g.g_name gh gt
           (pct gh gt));
      List.iter
        (fun p ->
          let holes =
            List.filter_map
              (fun (n, c) -> if c = 0 then Some n else None)
              (bins p)
          in
          let hole_str =
            match holes with
            | [] -> ""
            | hs ->
                let shown, extra =
                  if List.length hs > 6 then
                    (List.filteri (fun i _ -> i < 6) hs,
                     Printf.sprintf " (+%d more)" (List.length hs - 6))
                  else (hs, "")
                in
                "  holes: " ^ String.concat ", " shown ^ extra
          in
          Buffer.add_string b
            (Printf.sprintf "  %-12s %3d/%-3d %5.1f%%%s\n" p.p_name (hit p)
               (total p)
               (pct (hit p) (total p))
               hole_str))
        (points g))
    (groups t);
  Buffer.contents b

let openmetrics t =
  let counters =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun p ->
            List.map
              (fun (n, c) ->
                (Printf.sprintf "cover/%s/%s/%s" g.g_name p.p_name n, c))
              (bins p))
          (points g))
      (groups t)
  in
  let h, tot = totals t in
  Openmetrics.render ~counters
    ~gauges:[ ("cover/bins_hit", h); ("cover/bins_total", tot) ]
    ~histograms:[]
