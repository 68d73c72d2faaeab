open Ast

type issue = { loc : Loc.t; message : string }

let pp_issue fmt i =
  if i.loc = Loc.dummy then Format.pp_print_string fmt i.message
  else Format.fprintf fmt "%a: %s" Loc.pp i.loc i.message

type collector = { mutable issues : issue list }

let report c loc fmt =
  Format.kasprintf (fun message -> c.issues <- { loc; message } :: c.issues) fmt

(* ------------------------------------------------------------------ *)
(* Directive collection                                                *)
(* ------------------------------------------------------------------ *)

type directives = {
  mutable bus_type : (Loc.t * string) option;
  mutable bus_width : (Loc.t * int) option;
  mutable base_address : (Loc.t * int64) option;
  mutable burst : (Loc.t * bool) option;
  mutable dma : (Loc.t * bool) option;
  mutable packing : (Loc.t * bool) option;
  mutable irq : (Loc.t * bool) option;
  mutable device_name : (Loc.t * string) option;
  mutable hdl : (Loc.t * hdl_lang) option;
  mutable user_types : (Loc.t * string * string list * int) list; (* reversed *)
  mutable user_structs : (Loc.t * string * (string list * string) list) list;
      (* reversed *)
}

let empty_directives () =
  {
    bus_type = None;
    bus_width = None;
    base_address = None;
    burst = None;
    dma = None;
    packing = None;
    irq = None;
    device_name = None;
    hdl = None;
    user_types = [];
    user_structs = [];
  }

let collect_directive c ds loc = function
  | Bus_type s ->
      if ds.bus_type <> None then report c loc "duplicate %%bus_type directive"
      else ds.bus_type <- Some (loc, s)
  | Bus_width n ->
      if ds.bus_width <> None then report c loc "duplicate %%bus_width directive"
      else ds.bus_width <- Some (loc, n)
  | Base_address a ->
      if ds.base_address <> None then
        report c loc "duplicate %%base_address directive"
      else ds.base_address <- Some (loc, a)
  | Burst_support b ->
      if ds.burst <> None then report c loc "duplicate %%burst_support directive"
      else ds.burst <- Some (loc, b)
  | Dma_support b ->
      if ds.dma <> None then report c loc "duplicate %%dma_support directive"
      else ds.dma <- Some (loc, b)
  | Packing_support b ->
      if ds.packing <> None then
        report c loc "duplicate %%packing_support directive"
      else ds.packing <- Some (loc, b)
  | Interrupt_support b ->
      if ds.irq <> None then
        report c loc "duplicate %%interrupt_support directive"
      else ds.irq <- Some (loc, b)
  | Device_name s ->
      if ds.device_name <> None then
        report c loc "duplicate %%device_name directive"
      else ds.device_name <- Some (loc, s)
  | Target_hdl h ->
      if ds.hdl <> None then report c loc "duplicate %%target_hdl directive"
      else ds.hdl <- Some (loc, h)
  | User_type { ut_name; ut_def; ut_width } ->
      if List.exists (fun (_, n, _, _) -> n = ut_name) ds.user_types then
        report c loc "duplicate %%user_type %s" ut_name
      else ds.user_types <- (loc, ut_name, ut_def, ut_width) :: ds.user_types
  | User_struct { us_name; us_fields } ->
      if List.exists (fun (_, n, _) -> n = us_name) ds.user_structs then
        report c loc "duplicate %%user_struct %s" us_name
      else ds.user_structs <- (loc, us_name, us_fields) :: ds.user_structs

(* ------------------------------------------------------------------ *)
(* Parameter / function resolution                                     *)
(* ------------------------------------------------------------------ *)

let identifier_ok name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)

let resolve_io c env ~fname ~loc ~what ~name (ty_words : string list)
    (ext : extensions) : Spec.io option =
  match Ctype.resolve env ty_words with
  | None ->
      report c loc "%s: unknown type %S in %s" fname
        (String.concat " " ty_words) what;
      None
  | Some { Ctype.width; signed } ->
      if width = 0 then begin
        report c loc "%s: void is not a legal %s type" fname what;
        None
      end
      else begin
        let counted = Option.is_some ext.count in
        (* a struct's fields; [] for every other type (no struct is empty) *)
        let fields =
          match ty_words with
          | [ w ] -> Option.value (Ctype.struct_fields env w) ~default:[]
          | _ -> []
        in
        if counted && not ext.pointer then
          report c loc "%s: ':' reference on non-pointer %s %s" fname what name;
        if ext.pointer && not counted then
          report c loc
            "%s: pointer %s %s needs an explicit or implicit count (§3.1.2)"
            fname what name;
        if ext.packed && not (ext.pointer && counted) then
          report c loc
            "%s: '+' requires an explicit or implicit pointer declaration \
             (§3.1.3)"
            fname;
        if ext.dma && not (ext.pointer && counted) then
          report c loc
            "%s: '^' requires an explicit or implicit pointer declaration \
             (§3.1.5)"
            fname;
        if ext.by_ref && not (ext.pointer && counted) then
          report c loc
            "%s: '&' requires an explicit or implicit pointer declaration \
             (§10.2)"
            fname;
        if ext.packed && fields <> [] then
          report c loc
            "%s: struct %s %s cannot be packed (fields are transferred \
             individually, §10.2)"
            fname what name;
        if ext.by_ref && what = "return" then
          report c loc
            "%s: '&' is only meaningful on parameters (the return value is \
             already an output)"
            fname;
        Some
          {
            Spec.io_name = name;
            type_words = ty_words;
            io_width = width;
            signed;
            is_pointer = ext.pointer;
            count = ext.count;
            is_packed = ext.packed;
            is_dma = ext.dma;
            is_by_ref = ext.by_ref && what <> "return";
            fields;
            used_as_index = false;
          }
      end

(* the first input named [v] in declaration order: the last one in the
   reversed list *)
let first_named v rev_inputs =
  List.fold_left
    (fun found (i : Spec.io) -> if i.io_name = v then Some i else found)
    None rev_inputs

let resolve_func c env ~dma_enabled (d : decl) next_id : Spec.func =
  let loc = d.d_loc in
  let fname = d.d_name in
  if not (identifier_ok fname) then
    report c loc "illegal function name %S" fname;
  (* duplicate parameter names *)
  ignore
    (List.fold_left
       (fun seen p ->
         if List.exists (String.equal p.p_name) seen then begin
           report c p.p_loc "%s: duplicate parameter name %s" fname p.p_name;
           seen
         end
         else p.p_name :: seen)
       [] d.d_params);
  (* inputs, checking implicit reference ordering (§3.3); reversed *)
  let inputs = ref [] in
  List.iter
    (fun p ->
      match
        resolve_io c env ~fname ~loc:p.p_loc ~what:"parameter" ~name:p.p_name
          p.p_type p.p_ext
      with
      | None -> ()
      | Some io ->
          (match io.Spec.count with
          | Some (Var v) -> (
              match first_named v !inputs with
              | None ->
                  report c p.p_loc
                    "%s: implicit reference ':%s' must name an earlier input \
                     (§3.3)"
                    fname v
              | Some target ->
                  if target.is_pointer || target.fields <> [] then
                    report c p.p_loc
                      "%s: implicit reference ':%s' must name a scalar input"
                      fname v
                  else if target.io_width > 32 then
                    report c p.p_loc
                      "%s: implicit index %s is wider than 32 bits" fname v
                  else
                    inputs :=
                      List.map
                        (fun (i : Spec.io) ->
                          if i.io_name = v then { i with used_as_index = true }
                          else i)
                        !inputs)
          | _ -> ());
          if io.Spec.is_dma && not dma_enabled then
            report c p.p_loc
              "%s: parameter %s requests DMA but %%dma_support is not enabled \
               (§3.2.2)"
              fname io.io_name;
          inputs := io :: !inputs)
    d.d_params;
  let inputs = List.rev !inputs in
  (* return value *)
  let output, nowait =
    match d.d_ret with
    | Ret_void -> (None, false)
    | Ret_nowait -> (None, true)
    | Ret_value (ws, ext) -> (
        match
          resolve_io c env ~fname ~loc ~what:"return" ~name:"result" ws ext
        with
        | None -> (None, false)
        | Some io ->
            (match io.Spec.count with
            | Some (Var v)
              when not
                     (List.exists
                        (fun (i : Spec.io) -> i.io_name = v && not i.is_pointer)
                        inputs) ->
                report c loc
                  "%s: return reference ':%s' must name a scalar input" fname v
            | _ -> ());
            if io.Spec.is_dma && not dma_enabled then
              report c loc
                "%s: return value requests DMA but %%dma_support is not \
                 enabled (§3.2.2)"
                fname;
            (Some io, false))
  in
  (* mark inputs referenced by the output's implicit count *)
  let inputs =
    match output with
    | Some { Spec.count = Some (Var v); _ } ->
        List.map
          (fun (i : Spec.io) ->
            if i.io_name = v then { i with used_as_index = true } else i)
          inputs
    | _ -> inputs
  in
  if nowait && List.exists (fun (i : Spec.io) -> i.Spec.is_by_ref) inputs then
    report c loc
      "%s: '&' write-back parameters need synchronisation and cannot be used \
       on a nowait function"
      fname;
  { Spec.name = fname; func_id = next_id; instances = d.d_instances; inputs; output; nowait }

(* ------------------------------------------------------------------ *)
(* Whole-file build                                                    *)
(* ------------------------------------------------------------------ *)

let bits_for n =
  let rec go b = if 1 lsl b > n then b else go (b + 1) in
  go 1

let build ?lookup_bus (file : file) =
  let c = { issues = [] } in
  let ds = empty_directives () in
  let decls =
    List.filter_map
      (function
        | Directive (loc, d) ->
            collect_directive c ds loc d;
            None
        | Decl d -> Some d)
      file
  in
  (* type environment: %user_type then %user_struct registrations *)
  let env =
    List.fold_left
      (fun env (loc, name, def, width) ->
        let signed = not (List.exists (String.equal "unsigned") def) in
        try Ctype.add_user_type env ~name ~width ~signed
        with Error.Splice_error e ->
          report c loc "%s" e.Error.message;
          env)
      Ctype.base
      (List.rev ds.user_types)
  in
  let env =
    List.fold_left
      (fun env (loc, name, raw_fields) ->
        match
          List.map
            (fun (ty_words, fname) ->
              match Ctype.resolve env ty_words with
              | Some info when info.Ctype.width > 0 -> (fname, info)
              | _ ->
                  Error.failf ~loc "%%user_struct %s: unknown field type %S"
                    name
                    (String.concat " " ty_words))
            raw_fields
        with
        | fields -> (
            try Ctype.add_struct env ~name ~fields
            with Error.Splice_error e ->
              report c loc "%s" e.Error.message;
              env)
        | exception Error.Splice_error e ->
            report c e.Error.loc "%s" e.Error.message;
            env)
      env
      (List.rev ds.user_structs)
  in
  (* required directives (§3.2.1, §3.2.3) *)
  let bus_name =
    match ds.bus_type with
    | Some (_, s) -> s
    | None ->
        report c Loc.dummy "missing required %%bus_type directive (Fig 3.9)";
        "unknown"
  in
  let bus_width =
    match ds.bus_width with
    | Some (_, n) -> n
    | None ->
        report c Loc.dummy "missing required %%bus_width directive (Fig 3.10)";
        32
  in
  let device_name =
    match ds.device_name with
    | Some (_, s) -> s
    | None ->
        report c Loc.dummy
          "missing required %%device_name directive (Fig 3.15)";
        "unnamed"
  in
  let burst = match ds.burst with Some (_, b) -> b | None -> false in
  let dma = match ds.dma with Some (_, b) -> b | None -> false in
  let packing = match ds.packing with Some (_, b) -> b | None -> false in
  let interrupts = match ds.irq with Some (_, b) -> b | None -> false in
  let hdl = match ds.hdl with Some (_, h) -> h | None -> Vhdl in
  (* bus capability checks *)
  (match lookup_bus with
  | None -> ()
  | Some lookup -> (
      match lookup bus_name with
      | None ->
          report c Loc.dummy "unknown bus %S (no adapter library registered)"
            bus_name
      | Some caps ->
          if not (List.exists (Int.equal bus_width) caps.Bus_caps.widths) then
            report c Loc.dummy
              "bus %s does not support a %d-bit data path (legal: %s)"
              bus_name bus_width
              (String.concat ", "
                 (List.map string_of_int caps.Bus_caps.widths));
          if caps.Bus_caps.memory_mapped && ds.base_address = None then
            report c Loc.dummy
              "bus %s is memory-mapped: %%base_address is required (Fig 3.11)"
              bus_name;
          if burst && not caps.Bus_caps.supports_burst then
            report c Loc.dummy "bus %s has no burst support (§3.2.2)" bus_name;
          if dma && not caps.Bus_caps.supports_dma then
            report c Loc.dummy "bus %s has no DMA support (§3.2.2)" bus_name;
          if interrupts && not caps.Bus_caps.supports_interrupts then
            report c Loc.dummy "bus %s has no interrupt line (§10.2)" bus_name));
  (* functions *)
  if decls = [] then report c Loc.dummy "no interface declarations given";
  (* functions, reversed, and the next free function id *)
  let rev_funcs, total =
    List.fold_left
      (fun (acc, next_id) d ->
        if List.exists (fun (f : Spec.func) -> String.equal f.name d.d_name) acc then begin
          report c d.d_loc "duplicate function %s" d.d_name;
          (acc, next_id)
        end
        else (resolve_func c env ~dma_enabled:dma d next_id :: acc, next_id + d.d_instances))
      ([], 1) decls
  in
  let funcs = List.rev rev_funcs in
  let total_instances = total - 1 in
  let spec =
    {
      Spec.device_name;
      hdl;
      bus_name;
      bus_width;
      base_address = Option.map snd ds.base_address;
      burst;
      dma;
      packing;
      interrupts;
      user_types = Ctype.user_types env;
      structs = Ctype.structs env;
      funcs;
      total_instances;
      func_id_width = bits_for total_instances;
    }
  in
  match c.issues with [] -> Ok spec | issues -> Error (List.rev issues)

let of_string ?lookup_bus src =
  match Parser.parse_file src with
  | exception Error.Splice_error e ->
      Error [ { loc = e.Error.loc; message = e.Error.message } ]
  | file -> build ?lookup_bus file

let of_string_exn ?lookup_bus src =
  match of_string ?lookup_bus src with
  | Ok spec -> spec
  | Error (i :: _) -> Error.fail ~loc:i.loc i.message
  | Error [] -> assert false
