open Splice_syntax

let base_addr_literal (spec : Spec.t) =
  match spec.Spec.base_address with
  | Some a -> Printf.sprintf "x\"%08Lx\"" a
  | None -> "x\"00000000\""

let default_gen_date () =
  let t = Unix.localtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min

let standard ?gen_date (spec : Spec.t) =
  let date = match gen_date with Some d -> d | None -> default_gen_date () in
  [
    ("COMP_NAME", spec.Spec.device_name);
    ("BUS_WIDTH", string_of_int spec.Spec.bus_width);
    ("FUNC_ID_WIDTH", string_of_int spec.Spec.func_id_width);
    ("BASE_ADDR", base_addr_literal spec);
    ("GEN_DATE", date);
    ("DMA_ENABLED", if spec.Spec.dma then "true" else "false");
  ]
