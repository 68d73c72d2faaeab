open Splice_syntax
open Splice_buses
open Splice_hdl

let check_params (module B : Bus.S) (spec : Spec.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let caps = B.caps in
  if not (List.mem spec.Spec.bus_width caps.Bus_caps.widths) then
    err "bus %s cannot provide a %d-bit data path" caps.Bus_caps.name
      spec.Spec.bus_width;
  if caps.Bus_caps.memory_mapped && spec.Spec.base_address = None then
    err "bus %s is memory-mapped and needs %%base_address" caps.Bus_caps.name;
  if spec.Spec.burst && not caps.Bus_caps.supports_burst then
    err "bus %s has no burst support" caps.Bus_caps.name;
  if spec.Spec.dma && not caps.Bus_caps.supports_dma then
    err "bus %s has no DMA support" caps.Bus_caps.name;
  List.iter
    (fun (f : Spec.func) ->
      let check_io (io : Spec.io) =
        if io.Spec.is_dma && not caps.Bus_caps.supports_dma then
          err "%s.%s requests DMA, unsupported on %s" f.Spec.name io.io_name
            caps.Bus_caps.name
      in
      List.iter check_io f.Spec.inputs;
      Option.iter check_io f.Spec.output)
    spec.Spec.funcs;
  (match B.check_params spec with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> err "%s" e) es);
  match !errors with [] -> Ok () | es -> Error (List.rev es)

(* Adapter templates split at their markers, newest first, keyed by the
   template string itself: a bus module holds its template as one
   constant, so each is parsed once. Bounded, in case a program builds
   bus libraries on the fly. Domains share the list; an entry lost to a
   racing domain is parsed again on its next use. *)
let parsed = Atomic.make []
let parsed_max = 32

let parsed_template src =
  match List.find_opt (fun (s, _) -> s == src) (Atomic.get parsed) with
  | Some (_, t) -> t
  | None ->
      let t = Template.parse src in
      Atomic.set parsed
        ((src, t) :: List.filteri (fun i _ -> i < parsed_max - 1) (Atomic.get parsed));
      t

let generate ?gen_date (module B : Bus.S) (spec : Spec.t) =
  (match check_params (module B) spec with
  | Ok () -> ()
  | Error (e :: _) -> Error.fail e
  | Error [] -> assert false);
  let markers =
    Macro.standard ?gen_date spec
    @ List.map (fun (name, f) -> (name, f spec)) B.extra_markers
  in
  Template.render ~markers (parsed_template B.adapter_template)

(* adapter reference templates are written in VHDL (as the thesis's are);
   a Verilog-targeted project simply mixes languages, which every FPGA
   toolchain supports, so the adapter keeps its .vhd extension *)
let file_name (spec : Spec.t) = spec.Spec.bus_name ^ "_interface.vhd"
