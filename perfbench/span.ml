(* Spans recorded by the benchmark around its calls into each layer. The
   program itself is not instrumented: a span covers one call into a
   layer's public function, made from the benchmark's own code. Spans are
   kept in memory and written out once, when the run ends. *)

type t = {
  id : int;
  parent : int;  (** 0 = a root span *)
  layer : string;
  name : string;
  req : int;  (** request id: spans of one served request share it; 0 = none *)
  t0 : int64;
  t1 : int64;
}

type recorder = {
  mutable on : bool;
  mutable spans : t list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
}

let create () = { on = false; spans = []; stack = []; next = 1 }
let set r on = r.on <- on
let spans r = List.rev r.spans
let parent r = match r.stack with p :: _ -> p | [] -> 0

let fresh r =
  let id = r.next in
  r.next <- id + 1;
  id

(* [around r ~layer ~name f] runs [f] inside a span; when the recorder is
   off it is [f ()] and nothing else. *)
let around ?(req = 0) r ~layer ~name f =
  if not r.on then f ()
  else begin
    let id = fresh r in
    let parent = parent r in
    r.stack <- id :: r.stack;
    let t0 = Stat.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Stat.now_ns () in
        r.stack <- List.tl r.stack;
        r.spans <- { id; parent; layer; name; req; t0; t1 } :: r.spans)
      f
  end

(* A span whose times were measured elsewhere (e.g. the phases a served
   request reports in its reply); returns its id for children. *)
let add ?(req = 0) ?under r ~layer ~name ~t0 ~t1 =
  let parent = match under with Some p -> p | None -> parent r in
  let id = fresh r in
  if r.on then r.spans <- { id; parent; layer; name; req; t0; t1 } :: r.spans;
  id

let dur s = Int64.sub s.t1 s.t0

(* Self time of every span: its duration minus the part of its interval
   that its children cover (overlapping children count once). *)
let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all kids s.id
        |> List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = max a hi in
            if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, hi))
          (0L, Int64.min_int) ivs
      in
      (s, Int64.sub (dur s) covered))
    spans

(* Per layer: (layer, spans, total ns, self ns), by descending self time. *)
let by_layer spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let n, tot, sf =
        Option.value ~default:(0, 0L, 0L) (Hashtbl.find_opt tbl s.layer)
      in
      Hashtbl.replace tbl s.layer (n + 1, Int64.add tot (dur s), Int64.add sf self))
    (self_times spans);
  Hashtbl.fold (fun l (n, tot, sf) acc -> (l, n, tot, sf) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let layer_table spans =
  let b = Buffer.create 512 in
  Printf.bprintf b "%-10s %8s %14s %14s\n" "layer" "spans" "total_ms" "self_ms";
  List.iter
    (fun (l, n, tot, sf) ->
      Printf.bprintf b "%-10s %8d %14.3f %14.3f\n" l n
        (Int64.to_float tot /. 1e6) (Int64.to_float sf /. 1e6))
    (by_layer spans);
  Buffer.contents b

let to_json spans =
  let base = List.fold_left (fun m s -> min m s.t0) Int64.max_int spans in
  let rel t = Splice.Json.Int (Int64.to_int (Int64.sub t base)) in
  Splice.Json.List
    (List.map
       (fun s ->
         Splice.Json.Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("layer", String s.layer);
             ("name", String s.name);
             ("req", Int s.req);
             ("start_ns", rel s.t0);
             ("end_ns", rel s.t1);
           ])
       spans)
