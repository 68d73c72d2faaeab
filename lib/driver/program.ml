open Splice_sis
open Splice_syntax
open Splice_bits

type t = Op.t list

let values_of_args args v =
  match Spec.assoc_name v args with
  | Some (x :: _) -> Int64.to_int x
  | Some [] | None ->
      invalid_arg (Printf.sprintf "Program: implicit index %s missing" v)

let write_ops id words ~burst ~max_burst_words =
  let chunks = Plan.chunk_words ~burst ~max_burst_words (List.length words) in
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | [] -> assert false
      | x :: rest ->
          let t, l = take (n - 1) rest in
          (x :: t, l)
  in
  let rec go words = function
    | [] -> []
    | size :: sizes ->
        let chunk, rest = take size words in
        let op =
          match size with
          | 1 -> Op.Write_single (id, List.hd chunk)
          | 2 -> Op.Write_double (id, chunk)
          | 4 -> Op.Write_quad (id, chunk)
          | _ -> Op.Write_burst (id, chunk)
        in
        op :: go rest sizes
  in
  go words chunks

let read_ops id words ~burst ~max_burst_words =
  let chunks = Plan.chunk_words ~burst ~max_burst_words words in
  List.map
    (fun size ->
      match size with
      | 1 -> Op.Read_single id
      | 2 -> Op.Read_double id
      | 4 -> Op.Read_quad id
      | n -> Op.Read_burst (id, n))
    chunks

let of_plan ?(instance = 0) ?(lean = false) ~max_burst_words ~supports_dma
    (plan : Plan.t) ~args =
  let func = plan.Plan.func in
  if instance < 0 || instance >= func.Spec.instances then
    invalid_arg
      (Printf.sprintf "Program.of_plan: instance %d of %s (has %d)" instance
         func.Spec.name func.Spec.instances);
  let id = func.Spec.func_id + instance in
  let spec = plan.Plan.spec in
  let burst = spec.Spec.burst in
  (* a hand-optimised driver resolves addresses at compile time and omits
     the null WAIT_FOR_RESULTS of pseudo-asynchronous buses (§9.2.1) *)
  let ops = ref (if lean then [] else [ Op.Set_address id ]) in
  let emit op = ops := op :: !ops in
  (* inputs, in declaration order (§3.3: order is significant) *)
  List.iter
    (fun (x : Plan.xfer) ->
      let name = x.Plan.io.Spec.io_name in
      let elems =
        match Spec.assoc_name name args with
        | Some vs -> vs
        | None -> invalid_arg (Printf.sprintf "Program: missing argument %s" name)
      in
      if List.length elems <> Plan.expected_values x then
        invalid_arg
          (Printf.sprintf "Program: argument %s has %d value(s), plan needs %d"
             name (List.length elems) (Plan.expected_values x));
      let words = Plan.marshal ~word_width:spec.Spec.bus_width x elems in
      if x.Plan.dma then begin
        if not supports_dma then
          invalid_arg
            (Printf.sprintf "Program: %s requests DMA on a non-DMA bus" name);
        emit (Op.Write_dma (id, words))
      end
      else List.iter emit (write_ops id words ~burst ~max_burst_words))
    plan.Plan.inputs;
  if plan.Plan.trigger_write then
    emit (Op.Write_single (id, Bits.zero spec.Spec.bus_width));
  if plan.Plan.wait_required && not lean then emit (Op.Wait_for_results id);
  (* by-reference parameters are read back first, then the return value *)
  List.iter
    (fun (x : Plan.xfer) ->
      if x.Plan.dma then begin
        if not supports_dma then
          invalid_arg "Program: readback requests DMA on a non-DMA bus";
        emit (Op.Read_dma (id, x.Plan.words))
      end
      else List.iter emit (read_ops id x.Plan.words ~burst ~max_burst_words))
    plan.Plan.readbacks;
  (match plan.Plan.output with
  | None -> ()
  | Some x ->
      if x.Plan.dma then begin
        if not supports_dma then
          invalid_arg "Program: output requests DMA on a non-DMA bus";
        emit (Op.Read_dma (id, x.Plan.words))
      end
      else List.iter emit (read_ops id x.Plan.words ~burst ~max_burst_words));
  (* a blocking void function confirms completion with a 1-word ack read *)
  if plan.Plan.output = None && Spec.blocking_ack func then
    emit (Op.Read_single id);
  List.rev !ops

let expected_read_words t = List.fold_left (fun acc op -> acc + Op.read_words op) 0 t

let rec take n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> invalid_arg "Program: fewer read words than the plan expects"
    | x :: rest ->
        let t, l = take (n - 1) rest in
        (x :: t, l)

let decode (plan : Plan.t) (x : Plan.xfer) words =
  Plan.unmarshal ~word_width:plan.Plan.spec.Spec.bus_width x words
  |> Plan.sign_extend_elems ~elem_width:x.Plan.elem_width
       ~signed:x.Plan.io.Spec.signed

let unpack_readbacks (plan : Plan.t) words =
  let rbs, rest =
    List.fold_left
      (fun (acc, words) (x : Plan.xfer) ->
        let chunk, rest = take x.Plan.words words in
        ((x.Plan.io.Spec.io_name, decode plan x chunk) :: acc, rest))
      ([], words) plan.Plan.readbacks
  in
  (List.rev rbs, rest)

let unpack_result (plan : Plan.t) words =
  let _, words = unpack_readbacks plan words in
  match plan.Plan.output with
  | None -> []
  | Some x -> decode plan x words

let pp fmt t =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
    Op.pp fmt t
