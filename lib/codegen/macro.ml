open Splice_syntax
open Splice_hdl

let base_addr_literal spec = String.concat "" [ "x\""; Spec.base_address_hex spec; "\"" ]

let default_gen_date () =
  let t = Unix.localtime (Unix.time ()) in
  (* [n] zero-padded to [w] digits *)
  let digits w n =
    let s = Emit.int_to_string n in
    String.make (max 0 (w - String.length s)) '0' ^ s
  in
  String.concat ""
    [
      digits 4 (t.Unix.tm_year + 1900); "-"; digits 2 (t.Unix.tm_mon + 1); "-";
      digits 2 t.Unix.tm_mday; " "; digits 2 t.Unix.tm_hour; ":"; digits 2 t.Unix.tm_min;
    ]

let standard ?gen_date (spec : Spec.t) =
  let date = match gen_date with Some d -> d | None -> default_gen_date () in
  [
    ("COMP_NAME", spec.Spec.device_name);
    ("BUS_WIDTH", Emit.int_to_string spec.Spec.bus_width);
    ("FUNC_ID_WIDTH", Emit.int_to_string spec.Spec.func_id_width);
    ("BASE_ADDR", base_addr_literal spec);
    ("GEN_DATE", date);
    ("DMA_ENABLED", if spec.Spec.dma then "true" else "false");
  ]
