open Splice_syntax
open Splice_buses

type file = { path : string; contents : string }

type t = {
  spec : Spec.t;
  hardware : file list;
  software : file list;
}

let generate ?gen_date ?(linux = false) (spec : Spec.t) =
  let (module B : Bus.S) =
    match Registry.find spec.Spec.bus_name with
    | Some b -> b
    | None -> Error.failf "unknown bus %S" spec.Spec.bus_name
  in
  let hardware =
    { path = Busgen.file_name spec; contents = Busgen.generate ?gen_date (module B) spec }
    :: { path = Arbitergen.file_name spec; contents = Arbitergen.generate spec }
    :: List.map
         (fun f -> { path = Stubgen.file_name spec f; contents = Stubgen.generate spec f })
         spec.Spec.funcs
  in
  let linux_files =
    if linux then
      List.map (fun (path, contents) -> { path; contents }) (Linuxgen.files spec)
    else []
  in
  let makefile =
    let dev = spec.Spec.device_name in
    (* one Makefile line per row *)
    String.concat ""
      [
        "# Makefile for the Splice-generated software of device "; dev; "\n";
        "CC      ?= gcc\n";
        "CFLAGS  ?= -O2 -Wall -Wextra\n\n";
        "test_"; dev; ": "; dev; "_driver.c test_"; dev; ".c "; dev; "_driver.h splice_lib.h\n";
        "\t$(CC) $(CFLAGS) -o $@ "; dev; "_driver.c test_"; dev; ".c\n\n";
        ".PHONY: clean\n";
        "clean:\n";
        "\trm -f test_"; dev; "\n";
      ]
  in
  let software =
    [
      { path = "splice_lib.h"; contents = B.driver_header spec };
      { path = "Makefile"; contents = makefile };
      {
        path = spec.Spec.device_name ^ "_driver.h";
        contents = Drivergen.header_file spec;
      };
      {
        path = spec.Spec.device_name ^ "_driver.c";
        contents = Drivergen.source_file spec;
      };
      {
        path = String.concat "" [ "test_"; spec.Spec.device_name; ".c" ];
        contents = Drivergen.test_suite spec;
      };
    ]
    @ linux_files
  in
  { spec; hardware; software }

let files t = t.hardware @ t.software

let write_to ?(force = false) ~dir t =
  let device_dir = Filename.concat dir t.spec.Spec.device_name in
  if Sys.file_exists device_dir then begin
    if not force then
      failwith
        (Printf.sprintf
           "Project.write_to: %s already exists (pass ~force:true to overwrite, \
            §3.2.3)"
           device_dir)
  end
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Sys.mkdir device_dir 0o755
  end;
  List.map
    (fun f ->
      let path = Filename.concat device_dir f.path in
      let oc = open_out path in
      output_string oc f.contents;
      close_out oc;
      path)
    (files t)

let from_source ?gen_date ?linux src =
  let spec = Validate.of_string_exn ~lookup_bus:Registry.lookup_caps src in
  generate ?gen_date ?linux spec
