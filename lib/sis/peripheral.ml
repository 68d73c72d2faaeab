open Splice_sim
open Splice_syntax

type t = {
  spec : Spec.t;
  sis : Sis_if.t;
  stubs : ((string * int) * Stub_model.t) list;
}

let build ?(monitor = true) kernel (spec : Spec.t) ~behaviors =
  let sis = Sis_if.of_spec spec in
  let stubs =
    List.concat_map
      (fun (f : Spec.func) ->
        List.init f.instances (fun instance ->
            let ports =
              Stub_model.create_ports
                ~prefix:(Printf.sprintf "%s#%d" f.name instance)
                ~bus_width:spec.bus_width ()
            in
            let stub =
              Stub_model.make ~spec ~func:f ~instance ~sis ~ports
                ~behavior:(behaviors f.name)
            in
            ((f.name, instance), stub)))
      spec.funcs
  in
  let ports =
    List.map (fun (_, s) -> (Stub_model.func_id s, Stub_model.ports s)) stubs
  in
  let arbiter = Arbiter_model.make ~stubs:ports sis in
  (* stubs first, then the arbiter, so a single settle pass usually suffices *)
  List.iter (fun (_, s) -> Kernel.add kernel (Stub_model.component s)) stubs;
  Kernel.add kernel arbiter;
  if monitor then Sis_monitor.attach kernel sis;
  Sis_monitor.instrument kernel sis ~func_ids:(List.map fst ports);
  { spec; sis; stubs }

let sis t = t.sis
let spec t = t.spec

let stub t name ?(instance = 0) () =
  match List.assoc_opt (name, instance) t.stubs with
  | Some s -> s
  | None -> raise Not_found

let stubs t = List.map snd t.stubs
let status_vector t = Signal.get t.sis.Sis_if.calc_done
