open Splice_sim
open Splice_bits

let make ~stubs (sis : Sis_if.t) =
  let ids = List.map fst stubs in
  List.iter
    (fun id -> if id <= 0 then invalid_arg "Arbiter_model.make: id must be >= 1")
    ids;
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg "Arbiter_model.make: duplicate function ids";
  let vec_width = Signal.width sis.Sis_if.calc_done in
  List.iter
    (fun id ->
      if id - 1 >= vec_width then
        invalid_arg
          (Printf.sprintf
             "Arbiter_model.make: function id %d needs CALC_DONE bit %d but \
              the vector is only %d bit(s) wide"
             id (id - 1) vec_width))
    ids;
  let width = Signal.width sis.Sis_if.data_out in
  (* id -> ports, and the CALC_DONE bit/signal pairs, as arrays: the mux and
     the status vector are rebuilt on every comb evaluation *)
  let max_id = List.fold_left max 0 ids in
  let by_id = Array.make (max_id + 1) None in
  List.iter (fun (id, p) -> by_id.(id) <- Some p) stubs;
  let lookup arr id =
    if id >= 0 && id < Array.length arr then Array.unsafe_get arr id else None
  in
  let done_bits = Array.of_list (List.map (fun (id, _) -> id - 1) stubs) in
  let done_sigs =
    Array.of_list (List.map (fun (_, (p : Stub_model.ports)) -> p.calc_done) stubs)
  in
  let comb () =
    (* output mux, selected by FUNC_ID *)
    let id = Signal.get_int sis.Sis_if.func_id in
    (match lookup by_id id with
    | Some (p : Stub_model.ports) ->
        Signal.set sis.Sis_if.data_out (Signal.get p.data_out);
        Signal.set_bool sis.Sis_if.data_out_valid
          (Signal.get_bool p.data_out_valid);
        Signal.set_bool sis.Sis_if.io_done (Signal.get_bool p.io_done)
    | None ->
        Signal.set sis.Sis_if.data_out (Bits.zero width);
        Signal.set_bool sis.Sis_if.data_out_valid false;
        Signal.set_bool sis.Sis_if.io_done false);
    (* CALC_DONE status vector: bit (id-1) per instance; construction
       rejected any id whose bit would fall outside the vector. Built as an
       int64 and boxed only when it differs from the driven value. *)
    let vec = ref 0L in
    for i = 0 to Array.length done_sigs - 1 do
      if Signal.get_bool (Array.unsafe_get done_sigs i) then
        vec := Int64.logor !vec (Int64.shift_left 1L (Array.unsafe_get done_bits i))
    done;
    if (!vec : int64) <> Bits.to_int64 (Signal.get sis.Sis_if.calc_done) then
      Signal.set sis.Sis_if.calc_done (Bits.create ~width:vec_width !vec)
  in
  (* the mux is a pure function of FUNC_ID and the stub port outputs *)
  let reads =
    sis.Sis_if.func_id
    :: List.concat_map
         (fun (_, (p : Stub_model.ports)) ->
           [ p.data_out; p.data_out_valid; p.io_done; p.calc_done ])
         stubs
  in
  Component.make ~reads ~comb "arbiter"
