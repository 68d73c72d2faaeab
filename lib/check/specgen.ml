open Splice_syntax
open Splice_buses
open Splice_sis
open Splice_hdl

(* deterministic PRNG: the shared splitmix64 from lib/par (promoted out of
   this module, which used to carry its own copy), re-exported under the
   historical name so every fuzz seed keeps its meaning *)
module Rng = Splice_par.Splitmix

(* -------- random specifications -------- *)

type gparam = {
  g_ty : string;
  g_ptr_count : int option;
  g_packed : bool;
  g_by_ref : bool;
  g_dma : bool;
}

type gfunc = {
  g_name : string;
  g_params : gparam list;
  g_ret : [ `Void | `Nowait | `Scalar of string ];
  g_instances : int;
}

type gspec = {
  g_bus : string;
  g_funcs : gfunc list;
  g_packing : bool;
  g_burst : bool;
  (* CDC simulation parameters — meaningful on multi-clock buses (axi),
     carried (and shrunk) as first-class spec dimensions, rendered as
     nothing: they configure the kernel, not the declaration *)
  g_ratio : int * int;
  g_depth : int;
}

let scalar_types = [ "char"; "short"; "int"; "unsigned"; "double" ]

let gen_param rng =
  let ty = Rng.choose rng scalar_types in
  let ptr = if Rng.bool rng then None else Some (1 + Rng.int rng 6) in
  let packed = Rng.bool rng in
  let by_ref = Rng.bool rng in
  let dma = Rng.int rng 3 = 0 in
  let packed = packed && ptr <> None && ty = "char" in
  {
    g_ty = ty;
    g_ptr_count = ptr;
    g_packed = packed;
    g_by_ref = by_ref && ptr <> None && not packed;
    g_dma = dma && ptr <> None && not packed;
  }

let gen_func rng i =
  let nparams = Rng.int rng 4 in
  let params = List.init nparams (fun _ -> gen_param rng) in
  let ret =
    Rng.choose rng [ `Void; `Nowait; `Scalar "int"; `Scalar "char"; `Scalar "double" ]
  in
  let instances = 1 + Rng.int rng 3 in
  (* '&' write-backs need synchronisation: strip them on nowait funcs *)
  let params =
    if ret = `Nowait then List.map (fun p -> { p with g_by_ref = false }) params
    else params
  in
  { g_name = "fn_" ^ Emit.int_to_string i; g_params = params; g_ret = ret;
    g_instances = instances }

let spec ?buses rng =
  let buses = match buses with Some b -> b | None -> Registry.names () in
  let bus = Rng.choose rng buses in
  let nfuncs = 1 + Rng.int rng 4 in
  let funcs = List.init nfuncs (fun i -> gen_func rng i) in
  let packing = Rng.bool rng in
  let burst = Rng.bool rng in
  (* drawn after every pre-existing draw so historical seeds keep
     generating the same declaration shapes *)
  let ratio = Rng.choose rng Axi.ratios_all in
  let depth = Rng.choose rng Axi.depths_all in
  { g_bus = bus; g_funcs = funcs; g_packing = packing; g_burst = burst;
    g_ratio = ratio; g_depth = depth }

let with_bus g bus = { g with g_bus = bus }

(* Burst and DMA shapes are rendered only where the target bus can carry
   them: the same gspec retargeted (via [with_bus]) at a bus without the
   capability simply drops the directive and the '^' markers, so every
   rendering still validates — [Validate] rejects %burst_support /
   %dma_support on buses whose caps lack them. *)
let render g =
  let caps = Registry.lookup_caps g.g_bus in
  let burst_ok =
    match caps with Some c -> c.Bus_caps.supports_burst | None -> false
  in
  let dma_ok =
    match caps with Some c -> c.Bus_caps.supports_dma | None -> false
  in
  let any_dma =
    dma_ok
    && List.exists
         (fun f -> List.exists (fun p -> p.g_dma) f.g_params)
         g.g_funcs
  in
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  add "%device_name randomdev\n%bus_type ";
  add g.g_bus;
  add "\n%bus_width 32\n%base_address 0x80000000\n";
  if g.g_packing then add "%packing_support true\n";
  if g.g_burst && burst_ok then add "%burst_support true\n";
  if any_dma then add "%dma_support true\n";
  List.iter
    (fun f ->
      add (match f.g_ret with `Void -> "void" | `Nowait -> "nowait" | `Scalar ty -> ty);
      add " ";
      add f.g_name;
      add "(";
      List.iteri
        (fun i p ->
          if i > 0 then add ", ";
          add p.g_ty;
          (match p.g_ptr_count with
          | None -> ()
          | Some n ->
              add "*:";
              Emit.add_int buf n;
              if p.g_packed then add "+";
              if p.g_by_ref then add "&";
              if p.g_dma && dma_ok then add "^");
          add " p";
          Emit.add_int buf i)
        f.g_params;
      add ")";
      if f.g_instances > 1 then begin
        add ":";
        Emit.add_int buf f.g_instances
      end;
      add ";\n")
    g.g_funcs;
  Buffer.contents buf

let validate g =
  match Validate.of_string ~lookup_bus:Registry.lookup_caps (render g) with
  | Ok spec -> Ok spec
  | Error issues ->
      Error
        (String.concat "; "
           (List.map (fun i -> Format.asprintf "%a" Validate.pp_issue i) issues))

let pp fmt g = Format.pp_print_string fmt (render g)

(* Candidates ordered biggest-reduction-first, so the greedy descent in
   [Diff] converges in few predicate evaluations. *)
let shrink g =
  let drop_nth l n = List.filteri (fun i _ -> i <> n) l in
  let dropped_funcs =
    if List.length g.g_funcs <= 1 then []
    else
      List.mapi (fun i _ -> { g with g_funcs = drop_nth g.g_funcs i }) g.g_funcs
  in
  let map_func i f' = { g with g_funcs = List.mapi (fun j f -> if i = j then f' else f) g.g_funcs } in
  let dropped_params =
    List.concat
      (List.mapi
         (fun i f ->
           List.mapi (fun j _ -> map_func i { f with g_params = drop_nth f.g_params j })
             f.g_params)
         g.g_funcs)
  in
  let fewer_instances =
    List.concat
      (List.mapi
         (fun i f -> if f.g_instances > 1 then [ map_func i { f with g_instances = 1 } ] else [])
         g.g_funcs)
  in
  let simpler_params =
    List.concat
      (List.mapi
         (fun i f ->
           List.concat
             (List.mapi
                (fun j p ->
                  let set p' =
                    map_func i
                      { f with g_params = List.mapi (fun k q -> if k = j then p' else q) f.g_params }
                  in
                  (if p.g_dma then [ set { p with g_dma = false } ] else [])
                  @
                  match p.g_ptr_count with
                  | Some n when n > 1 -> [ set { p with g_ptr_count = Some 1 } ]
                  | Some _ ->
                      [ set { p with g_ptr_count = None; g_packed = false;
                              g_by_ref = false; g_dma = false } ]
                  | None -> [])
                f.g_params))
         g.g_funcs)
  in
  let no_packing = if g.g_packing then [ { g with g_packing = false } ] else [] in
  let no_burst = if g.g_burst then [ { g with g_burst = false } ] else [] in
  (* CDC dimensions shrink toward the trivial crossing: ratio 1:1 and the
     minimum FIFO, with a halving step so depth 16 descends in two moves *)
  let simpler_ratio = if g.g_ratio <> (1, 1) then [ { g with g_ratio = (1, 1) } ] else [] in
  let shallower =
    (if g.g_depth > 2 then [ { g with g_depth = 2 } ] else [])
    @ if g.g_depth > 4 then [ { g with g_depth = g.g_depth / 2 } ] else []
  in
  dropped_funcs @ dropped_params @ fewer_instances @ simpler_params
  @ no_packing @ no_burst @ simpler_ratio @ shallower

(* -------- static shape features (coverage-guided scheduling) -------- *)

type features = {
  ft_funcs : int;
  ft_max_instances : int;
  ft_max_write_words : int;
  ft_max_read_words : int;
  ft_has_by_ref : bool;
  ft_has_nowait : bool;
  ft_has_burst : bool;
  ft_has_dma : bool;
  ft_write_lens : int list;
  ft_read_lens : int list;
}

(* 32-bit bus words a parameter occupies on the wire (render pins
   %bus_width 32): doubles take two words, packed char arrays four
   elements per word. An approximation of Plan's packing is enough —
   the scorer only needs the ranking to be monotone in transfer size. *)
let words_of_param packing p =
  let elems = match p.g_ptr_count with None -> 1 | Some n -> n in
  if p.g_packed && packing then (elems + 3) / 4
  else elems * (if p.g_ty = "double" then 2 else 1)

let features g =
  let fold f init = List.fold_left f init g.g_funcs in
  let ret_words = function
    | `Scalar "double" -> 2
    | `Scalar _ -> 1
    | `Void | `Nowait -> 0
  in
  let write_words f =
    List.fold_left (fun acc p -> acc + words_of_param g.g_packing p) 0 f.g_params
  in
  let read_words f =
    ret_words f.g_ret
    + List.fold_left
        (fun acc p ->
          if p.g_by_ref then acc + words_of_param g.g_packing p else acc)
        0 f.g_params
  in
  let lens of_func =
    List.sort_uniq compare (List.filter_map of_func g.g_funcs)
  in
  {
    ft_funcs = List.length g.g_funcs;
    ft_max_instances = fold (fun m f -> max m f.g_instances) 1;
    ft_max_write_words = fold (fun m f -> max m (write_words f)) 0;
    ft_max_read_words = fold (fun m f -> max m (read_words f)) 0;
    ft_has_by_ref =
      fold (fun b f -> b || List.exists (fun p -> p.g_by_ref) f.g_params) false;
    ft_has_nowait = fold (fun b f -> b || f.g_ret = `Nowait) false;
    ft_has_burst = g.g_burst;
    ft_has_dma =
      fold (fun b f -> b || List.exists (fun p -> p.g_dma) f.g_params) false;
    ft_write_lens =
      lens (fun f -> match write_words f with 0 -> None | w -> Some w);
    ft_read_lens =
      lens (fun f -> match read_words f with 0 -> None | w -> Some w);
  }

(* -------- random traffic + golden digest model -------- *)

type call = {
  c_func : string;
  c_instance : int;
  c_args : (string * int64 list) list;
}

type traffic = { t_calc_cycles : int; t_calls : call list }

let mask_to width v =
  if width >= 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let sign_to width v =
  List.hd (Plan.sign_extend_elems ~elem_width:width ~signed:true [ mask_to width v ])

let traffic rng (spec : Spec.t) =
  (* up to 12 calculation cycles: long enough to outlive the driver's
     issue overhead and the adapter's teardown/setup gap, so result
     reads on pseudo-asynchronous buses actually stall (the wait-state
     coverage bins are unreachable if every CALC finishes first) *)
  let t_calc_cycles = 1 + Rng.int rng 12 in
  let t_calls =
    List.map
      (fun (f : Spec.func) ->
        let c_args =
          List.map
            (fun (io : Spec.io) ->
              let elems = Spec.io_elem_count io ~values:(fun _ -> 1) in
              ( io.Spec.io_name,
                List.init elems (fun _ -> mask_to io.Spec.io_width (Rng.int64 rng)) ))
            f.Spec.inputs
        in
        { c_func = f.Spec.name; c_instance = Rng.int rng f.Spec.instances; c_args })
      spec.Spec.funcs
  in
  { t_calc_cycles; t_calls }

(* the behaviour echoes a digest of its inputs so any marshalling slip shows *)
let digest inputs =
  List.fold_left
    (fun acc (name, vals) ->
      List.fold_left
        (fun acc v ->
          Int64.add (Int64.mul acc 1000003L)
            (Int64.add v (Int64.of_int (String.length name))))
        acc vals)
    7L inputs

let behavior ~calc_cycles _name =
  {
    Stub_model.calc_cycles = (fun _ -> calc_cycles);
    compute = (fun inputs -> [ digest inputs ]);
    write_back = (fun _ -> []);
  }

let expected_output (f : Spec.func) ~args =
  match f.Spec.output with
  | None -> []
  | Some o ->
      (* the stub saw sign-extended values of the declared types *)
      let seen =
        List.map
          (fun (io : Spec.io) ->
            let vals = List.assoc io.Spec.io_name args in
            ( io.Spec.io_name,
              if io.Spec.signed then List.map (sign_to io.Spec.io_width) vals
              else vals ))
          f.Spec.inputs
      in
      let d = mask_to o.Spec.io_width (digest seen) in
      [ (if o.Spec.signed then sign_to o.Spec.io_width d else d) ]
