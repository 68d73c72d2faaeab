open Splice_sis
open Splice_driver
open Splice_syntax

type impl =
  | Simple_plb_handcoded
  | Optimized_fcb_handcoded
  | Splice_plb_simple
  | Splice_fcb
  | Splice_plb_dma

let all_impls =
  [
    Simple_plb_handcoded;
    Optimized_fcb_handcoded;
    Splice_plb_simple;
    Splice_fcb;
    Splice_plb_dma;
  ]

let impl_name = function
  | Simple_plb_handcoded -> "Simple PLB (hand-coded)"
  | Optimized_fcb_handcoded -> "Optimized FCB (hand-coded)"
  | Splice_plb_simple -> "Splice PLB (Simple)"
  | Splice_fcb -> "Splice FCB"
  | Splice_plb_dma -> "Splice PLB (DMA)"

let calc_cycles = 36

let spec_src ~bus ~burst ~dma =
  Printf.sprintf
    {|%%device_name interp
%%target_hdl vhdl
%%bus_type %s
%%bus_width 32
%%base_address 0x80004000
%%burst_support %b
%%dma_support %b
%%user_type ulong, unsigned long, 32

int interp(ulong n1, int*:n1%s s1, ulong n2, int*:n2%s s2, ulong n3, int*:n3%s s3);
|}
    bus burst dma
    (if dma then "^" else "")
    (if dma then "^" else "")
    (if dma then "^" else "")

let source_for impl =
  match impl with
  | Simple_plb_handcoded | Splice_plb_simple ->
      spec_src ~bus:"plb" ~burst:false ~dma:false
  | Optimized_fcb_handcoded | Splice_fcb ->
      spec_src ~bus:"fcb" ~burst:true ~dma:false
  | Splice_plb_dma -> spec_src ~bus:"plb" ~burst:false ~dma:true

let spec_for impl =
  Validate.of_string_exn ~lookup_bus:Splice_buses.Registry.lookup_caps
    (source_for impl)

(* ------------------------------------------------------------------ *)
(* Golden model                                                        *)
(* ------------------------------------------------------------------ *)

let mask32 v = Int64.of_int32 (Int64.to_int32 v)

let reference inputs =
  let get name = match Spec.assoc_name name inputs with Some l -> l | None -> [] in
  let times = Array.of_list (get "s1") in
  let queries = get "s2" in
  let values = Array.of_list (get "s3") in
  let m = min (Array.length times) (Array.length values) in
  if m = 0 then 0L
  else if m = 1 then
    mask32 (List.fold_left (fun acc _ -> Int64.add acc values.(0)) 0L queries)
  else begin
    let interp_at q =
      (* clamp outside the sampled range (the UAV holds the last sample) *)
      if Int64.compare q times.(0) <= 0 then values.(0)
      else if Int64.compare q times.(m - 1) >= 0 then values.(m - 1)
      else begin
        let i = ref 0 in
        while !i < m - 2 && Int64.compare times.(!i + 1) q <= 0 do
          incr i
        done;
        let t0 = times.(!i) and t1 = times.(!i + 1) in
        let v0 = values.(!i) and v1 = values.(!i + 1) in
        let dt = Int64.sub t1 t0 in
        if dt = 0L then v0
        else
          Int64.add v0
            (Int64.div (Int64.mul (Int64.sub v1 v0) (Int64.sub q t0)) dt)
      end
    in
    mask32 (List.fold_left (fun acc q -> Int64.add acc (interp_at q)) 0L queries)
  end

let behavior name =
  match name with
  | "interp" ->
      Stub_model.behavior ~cycles:calc_cycles (fun inputs -> [ reference inputs ])
  | other -> failwith ("interpolator: unknown function " ^ other)

(* ------------------------------------------------------------------ *)
(* Hosts                                                               *)
(* ------------------------------------------------------------------ *)

let make_host ?obs ?sched impl =
  let spec = spec_for impl in
  match impl with
  | Simple_plb_handcoded ->
      Host.create ?obs ?sched spec ~behaviors:behavior
        ~bus:(module Handcoded.Naive_plb)
        ~issue_overhead:Handcoded.naive_plb_issue_overhead
  | Optimized_fcb_handcoded ->
      Host.create ?obs ?sched spec ~behaviors:behavior
        ~bus:(module Handcoded.Optimized_fcb)
        ~issue_overhead:Handcoded.optimized_fcb_issue_overhead
        ~lean_driver:true
  | Splice_fcb ->
      (* FCB opcodes are blocking APU instructions: each macro stalls the
         CPU across the 300/100 MHz boundary (§2.3.2) *)
      Host.create ?obs ?sched spec ~behaviors:behavior ~issue_overhead:5
  | Splice_plb_simple | Splice_plb_dma ->
      Host.create ?obs ?sched spec ~behaviors:behavior

let make_host_on_bus bus =
  let burst =
    match Splice_buses.Registry.lookup_caps bus with
    | Some caps -> caps.Splice_syntax.Bus_caps.supports_burst
    | None -> false
  in
  let src = spec_src ~bus ~burst ~dma:false in
  let spec =
    Validate.of_string_exn ~lookup_bus:Splice_buses.Registry.lookup_caps src
  in
  Host.create spec ~behaviors:behavior

let run host scenario =
  let args = Interp_scenarios.inputs scenario in
  match Host.call host ~func:"interp" ~args with
  | [ v ], cycles -> (v, cycles)
  | _ -> failwith "interpolator: expected a single result"

(* ------------------------------------------------------------------ *)
(* Fig 9.3 resource estimates                                          *)
(* ------------------------------------------------------------------ *)

(* the interpolation datapath (comparators, one multiplier, divider-free
   fixed-point step, accumulator) — identical in every implementation *)
let calc_logic =
  Splice_resources.Model.with_slices ~luts:260 ~ffs:140

let resource_usage impl =
  let spec = spec_for impl in
  let style : Splice_resources.Model.style =
    match impl with
    | Simple_plb_handcoded -> Handcoded_naive "plb"
    | Optimized_fcb_handcoded -> Handcoded_optimized "fcb"
    | Splice_plb_simple | Splice_fcb | Splice_plb_dma -> Generated
  in
  Splice_resources.Model.estimate ~calc_logic ~style spec
