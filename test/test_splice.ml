(* End-to-end smoke suite on the public [Splice] API — spec, plan, codegen,
   lint and cycle-accurate simulation on one device (the Ch 9 interpolator)
   — followed by the aggregated alcotest runner for every other suite. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let interp_spec () = Interpolator.spec_for Interpolator.Splice_plb_simple

let smoke_tests =
  [
    t "interpolator spec validates and plans every function" (fun () ->
        let spec = interp_spec () in
        Alcotest.(check bool) "has functions" true (spec.Spec.funcs <> []);
        List.iter
          (fun (f : Spec.func) ->
            let plan = Plan.make spec f ~values:(fun _ -> 4) in
            Alcotest.(check bool)
              (f.Spec.name ^ " plan renders")
              true
              (String.length (Format.asprintf "%a" Plan.pp plan) > 0))
          spec.Spec.funcs);
    t "generated project is marker-free and lint-clean" (fun () ->
        let project = Project.generate ~gen_date:"smoke" (interp_spec ()) in
        let files = Project.files project in
        Alcotest.(check bool) "several files generated" true
          (List.length files > 3);
        List.iter
          (fun (f : Project.file) ->
            if Filename.check_suffix f.path ".vhd" then begin
              Alcotest.(check (list string))
                (f.path ^ ": no leftover markers")
                []
                (Template.markers_in f.contents);
              Alcotest.(check int)
                (f.path ^ ": vhdl lint")
                0
                (List.length (Vhdl_lint.lint f.contents))
            end
            else if
              Filename.check_suffix f.path ".c"
              || Filename.check_suffix f.path ".h"
            then
              Alcotest.(check int)
                (f.path ^ ": c lint")
                0
                (List.length
                   (C_lint.lint
                      ~header:(Filename.check_suffix f.path ".h")
                      f.contents)))
          files);
    t "simulated host matches the software reference on every scenario"
      (fun () ->
        let host = Interpolator.make_host Interpolator.Splice_plb_simple in
        List.iter
          (fun sc ->
            let result, cycles = Interpolator.run host sc in
            Alcotest.(check int64)
              "result"
              (Interpolator.reference (Interp_scenarios.inputs sc))
              result;
            Alcotest.(check bool) "cycles sane" true (cycles > 0))
          Interp_scenarios.all);
    t "one declaration, same answer on every registered bus" (fun () ->
        let sc = Interp_scenarios.by_id 3 in
        let expected = Interpolator.reference (Interp_scenarios.inputs sc) in
        List.iter
          (fun bus ->
            let host = Interpolator.make_host_on_bus bus in
            Bus_monitor.attach (Host.kernel host) ~bus (Host.sis host);
            let result, _ = Interpolator.run host sc in
            Alcotest.(check int64) bus expected result)
          (Registry.names ()));
    t "the documented quickstart works verbatim" (fun () ->
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type plb\n%bus_width 32\n\
             %base_address 0x80000000\nint add2(int x, int y);"
        in
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior (fun inputs ->
                  [
                    Int64.add
                      (List.hd (List.assoc "x" inputs))
                      (List.hd (List.assoc "y" inputs));
                  ]))
        in
        let result, cycles =
          Host.call host ~func:"add2" ~args:[ ("x", [ 20L ]); ("y", [ 22L ]) ]
        in
        Alcotest.(check (list int64)) "20 + 22" [ 42L ] result;
        Alcotest.(check bool) "cycles sane" true (cycles > 0))
  ]

let () =
  Alcotest.run "splice"
    ([ ("smoke", smoke_tests) ]
    @ Test_bits.tests @ Test_sim.tests @ Test_syntax.tests @ Test_validate.tests
    @ Test_plan.tests @ Test_hdl.tests @ Test_sis.tests @ Test_buses.tests
    @ Test_driver.tests @ Test_codegen.tests @ Test_resources.tests
    @ Test_devices.tests @ Test_fir.tests @ Test_waves.tests @ Test_eval.tests
    @ Test_byref.tests @ Test_structs.tests @ Test_specs_dir.tests
    @ Test_lint.tests @ Test_clint.tests @ Test_engine.tests @ Test_gcc.tests
    @ Test_edge.tests @ Test_obs.tests @ Test_properties.tests
    @ Test_check.tests @ Test_par.tests @ Test_cover.tests @ Test_cdc.tests
    @ Test_cache.tests @ Test_serve.tests @ Test_alloc.tests @ Test_protocol.tests)
