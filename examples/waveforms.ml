(* Render the SIS transmission protocols of Ch 4 as timing diagrams: the
   ASCII equivalents of Fig 4.3 (pseudo-asynchronous writes, 1-cycle reads,
   delayed reads) and Fig 4.4 (strictly synchronous operation with status
   polling), plus a GTKWave-compatible VCD dump.

   Run with:  dune exec examples/waveforms.exe *)

let spec_of bus =
  Splice.Validate.of_string_exn ~lookup_bus:Splice.Registry.lookup_caps
    (Printf.sprintf
       "%%device_name wavedemo\n%%bus_type %s\n%%bus_width 32\n\
        %%base_address 0x80000000\nint accumulate(int*:3 xs);"
       bus)

let run bus ~calc =
  let spec = spec_of bus in
  let host =
    Splice.Host.create spec ~behaviors:(fun _ ->
        Splice.Stub_model.behavior ~cycles:calc (fun inputs ->
            [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
  in
  let wave =
    Splice.Wave.create (Splice.Host.kernel host)
      (Splice.Sis_if.signals (Splice.Host.sis host))
  in
  let r, cycles =
    Splice.Host.call host ~func:"accumulate"
      ~args:[ ("xs", [ 0x11L; 0x22L; 0x33L ]) ]
  in
  let vcd_path = Printf.sprintf "/tmp/splice_%s.vcd" bus in
  Out_channel.with_open_bin vcd_path (fun oc ->
      output_string oc (Splice.Wave.vcd wave ~module_name:"sis"));
  Printf.printf "accumulate([0x11;0x22;0x33]) = 0x%Lx in %d cycles\n"
    (List.hd r) cycles;
  print_string (Splice.Wave.render wave);
  Printf.printf "(VCD written to %s)\n" vcd_path

let () =
  print_endline
    "=== Pseudo-asynchronous SIS traffic on the PLB (cf. Fig 4.3) ===";
  print_endline
    "three writes complete against IO_DONE; the read stalls until CALC_DONE\n";
  run "plb" ~calc:6;
  print_endline
    "\n=== Strictly synchronous traffic on the APB (cf. Fig 4.4) ===";
  print_endline
    "same call: the driver polls the id-0 status register (extra IO_ENABLE\n\
     strobes with FUNC_ID 0) until the CALC_DONE bit rises, then reads\n";
  run "apb" ~calc:6
