(* Code-generation tests: templates + standard macros (Fig 7.1), bus
   interface generation (§5.1), stub generation (§5.3), arbiter generation
   (§5.2), C driver generation (Ch 6), the project file sets of Figs 8.3/8.7
   and the extension API (Ch 7). *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let contains = Astring_contains.contains

let spec_of ?(bus = "plb") ?(extra = "") decls =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
    (Printf.sprintf
       "%%device_name dev\n%%bus_type %s\n%%bus_width 32\n%%base_address \
        0x80004000\n%s%s"
       bus extra decls)

let timer_spec () =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps Timer.spec_source

let macro_tests =
  [
    t "standard macros cover Fig 7.1's device set" (fun () ->
        let spec = spec_of "void f(int x);" in
        let m = Macro.standard ~gen_date:"today" spec in
        Alcotest.(check (option string)) "comp" (Some "dev") (List.assoc_opt "COMP_NAME" m);
        Alcotest.(check (option string)) "width" (Some "32") (List.assoc_opt "BUS_WIDTH" m);
        Alcotest.(check (option string)) "fid" (Some "1") (List.assoc_opt "FUNC_ID_WIDTH" m);
        Alcotest.(check (option string)) "date" (Some "today") (List.assoc_opt "GEN_DATE" m);
        Alcotest.(check (option string)) "dma" (Some "false") (List.assoc_opt "DMA_ENABLED" m);
        Alcotest.(check (option string))
          "base" (Some "x\"80004000\"")
          (List.assoc_opt "BASE_ADDR" m));
    t "per-function macros render HDL snippets" (fun () ->
        let spec = spec_of "int f(int*:4 xs);" in
        let f = List.hd spec.Spec.funcs in
        let m = Macro.for_function spec f in
        check_bool "FUNC_NAME" true (List.assoc "FUNC_NAME" m = "f");
        check_bool "MY_FUNC_ID" true (List.assoc "MY_FUNC_ID" m = "1");
        check_bool "FSM mentions cur_state" true
          (contains (List.assoc "FUNC_FSM" m) "cur_state");
        check_bool "STUB mentions IO_DONE" true
          (contains (List.assoc "FUNC_STUB" m) "IO_DONE");
        check_bool "CONSTS mention states" true
          (contains (List.assoc "FUNC_CONSTS" m) "IN_xs"));
    t "arbiter macros render muxes" (fun () ->
        let spec = spec_of "int f(int x);\nint g(int x);" in
        let m = Macro.arbiter_macros spec in
        check_bool "DATA_OUT_MUX" true (contains (List.assoc "DATA_OUT_MUX" m) "when");
        check_bool "CALC_DONE_ENCODE" true
          (contains (List.assoc "CALC_DONE_ENCODE" m) "CALC_DONE"));
  ]

let busgen_tests =
  [
    t "PLB adapter expands all markers" (fun () ->
        let spec = spec_of "void f(int x);" in
        let s = Busgen.generate ~gen_date:"today" (module Plb) spec in
        check_bool "no leftover markers" true (Template.markers_in s = []);
        check_bool "entity" true (contains s "entity dev_plb_interface");
        check_bool "one-hot conversion (§4.3.2)" true (contains s "onehot_to_binary");
        check_bool "base addr" true (contains s "x\"80004000\""));
    t "DMA logic appears only when enabled" (fun () ->
        let base = spec_of "void f(int x);" in
        let with_dma =
          spec_of ~extra:"%dma_support true\n" "void f(int*:4^ x);"
        in
        let s1 = Busgen.generate ~gen_date:"t" (module Plb) base in
        let s2 = Busgen.generate ~gen_date:"t" (module Plb) with_dma in
        check_bool "absent" false (contains s1 "dma_engine");
        check_bool "present" true (contains s2 "dma_engine"));
    t "every built-in adapter template expands cleanly" (fun () ->
        List.iter
          (fun bus ->
            let spec = spec_of ~bus "int f(int x);\nvoid g();" in
            let (module B : Bus.S) = Option.get (Registry.find bus) in
            let s = Busgen.generate ~gen_date:"t" (module B) spec in
            check_bool (bus ^ " no markers") true (Template.markers_in s = []);
            check_bool (bus ^ " mentions SIS") true (contains s "SIS_FUNC_ID"))
          [ "plb"; "opb"; "fcb"; "apb"; "ahb" ]);
    t "AXI adapter's FIFO depth generic is the default CDC depth" (fun () ->
        (* generation reads no simulation state: the generic is always
           Bus.default_cdc's depth *)
        let p =
          Project.from_source ~gen_date:"t"
            "%device_name dev\n%bus_type axi\n%bus_width 32\n\
             %base_address 0x80000000\nint f(int x);"
        in
        check_bool "C_FIFO_DEPTH defaults to 4" true
          (List.exists
             (fun f -> contains f.Project.contents "C_FIFO_DEPTH : integer := 4")
             p.Project.hardware));
    t "check_params rejects illegal widths" (fun () ->
        let spec = { (spec_of "void f(int x);") with Spec.bus_width = 16 } in
        match Busgen.check_params (module Plb) spec with
        | Error (e :: _) -> check_bool "mentions 16" true (contains e "16")
        | _ -> Alcotest.fail "expected error");
    t "file naming follows Fig 8.3" (fun () ->
        let spec = spec_of "void f(int x);" in
        Alcotest.(check string) "name" "plb_interface.vhd" (Busgen.file_name spec));
  ]

let stubgen_tests =
  [
    t "state encoding (§5.3): inputs, CALC, OUT_RESULT" (fun () ->
        let spec = spec_of "int f(int a, int*:4 bs);" in
        Alcotest.(check (list string))
          "states"
          [ "IN_a"; "IN_bs"; "CALC"; "OUT_RESULT" ]
          (Stubgen.state_names (List.hd spec.Spec.funcs)));
    t "no-input functions get IN_TRIGGER" (fun () ->
        let spec = spec_of "void f();" in
        Alcotest.(check (list string))
          "states"
          [ "IN_TRIGGER"; "CALC"; "OUT_RESULT" ]
          (Stubgen.state_names (List.hd spec.Spec.funcs)));
    t "nowait functions have no output state" (fun () ->
        let spec = spec_of "nowait f(int x);" in
        Alcotest.(check (list string))
          "states" [ "IN_x"; "CALC" ]
          (Stubgen.state_names (List.hd spec.Spec.funcs)));
    t "generated stub is structurally valid and carries TODOs" (fun () ->
        let spec = spec_of "int f(int n, int*:n xs);" in
        let f = List.hd spec.Spec.funcs in
        check_bool "valid" true (Hdl_ast.validate (Stubgen.design spec f) = Ok ());
        let s = Stubgen.generate spec f in
        check_bool "calc todo" true (contains s "TODO (user): calculation logic");
        check_bool "storage todo" true (contains s "TODO (user): store DATA_IN");
        check_bool "generic id" true (contains s "C_MY_FUNC_ID");
        check_bool "implicit count register" true (contains s "n_value"));
    t "ragged packing gets the §5.3.1 ignore-bits comment" (fun () ->
        let spec = spec_of "void f(char*:5+ cs);" in
        let s = Stubgen.generate spec (List.hd spec.Spec.funcs) in
        check_bool "comment" true (contains s "24 trailing bit(s)"));
    t "verilog output honours %target_hdl (§10.2)" (fun () ->
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n\
             %target_hdl verilog\nint f(int x);"
        in
        let f = List.hd spec.Spec.funcs in
        Alcotest.(check string) "ext" "func_f.v" (Stubgen.file_name spec f);
        check_bool "module" true (contains (Stubgen.generate spec f) "module func_f"));
  ]

let arbitergen_tests =
  [
    t "arbiter instantiates every instance with its id (§5.2)" (fun () ->
        let spec = spec_of "int f(int x):2;\nint g(int x);" in
        let s = Arbitergen.generate spec in
        check_bool "f inst 0" true (contains s "u_f_0 : entity work.func_f");
        check_bool "f inst 1" true (contains s "u_f_1 : entity work.func_f");
        check_bool "g" true (contains s "u_g : entity work.func_g");
        check_bool "id 2 generic" true (contains s "C_MY_FUNC_ID => 2");
        check_bool "id 3 generic" true (contains s "C_MY_FUNC_ID => 3"));
    t "arbiter design is structurally valid" (fun () ->
        let spec = spec_of "int f(int x):3;\nvoid g();" in
        check_bool "valid" true (Hdl_ast.validate (Arbitergen.design spec) = Ok ()));
    t "status vector width equals instance count" (fun () ->
        let spec = spec_of "int f(int x):3;" in
        let d = Arbitergen.design spec in
        let cd =
          List.find (fun (p : Hdl_ast.port) -> p.port_name = "CALC_DONE") d.Hdl_ast.ports
        in
        check_int "width" 3 cd.Hdl_ast.width);
  ]

let drivergen_tests =
  [
    t "prototypes mirror the declarations (§3.1.1)" (fun () ->
        let spec = spec_of "float sample_function(int*:2 x, int y);" in
        Alcotest.(check string)
          "proto" "float sample_function(int *x, int y)"
          (Drivergen.prototype (List.hd spec.Spec.funcs)));
    t "multi-instance drivers take inst_index (Fig 6.2)" (fun () ->
        let spec = spec_of "float f(int* x:2, int y):4;" in
        check_bool "inst_index" true
          (contains (Drivergen.prototype (List.hd spec.Spec.funcs)) "int inst_index"));
    t "driver body follows Fig 6.1" (fun () ->
        let spec = spec_of "float sample_function(int*:2 x, int y);" in
        let s = Drivergen.driver_function spec (List.hd spec.Spec.funcs) in
        check_bool "id define" true (contains s "#define SAMPLE_FUNCTION_ID 1");
        check_bool "set address" true (contains s "SET_ADDRESS(SAMPLE_FUNCTION_ID)");
        check_bool "writes" true (contains s "WRITE_SINGLE");
        check_bool "wait" true (contains s "WAIT_FOR_RESULTS(func_addr)");
        check_bool "read" true (contains s "READ_SINGLE");
        check_bool "return" true (contains s "return result"));
    t "multi-value outputs are heap allocated with a free() warning (§6.1.1)"
      (fun () ->
        let spec = spec_of "int*:8 f(int x);" in
        let s = Drivergen.driver_function spec (List.hd spec.Spec.funcs) in
        check_bool "malloc" true (contains s "malloc");
        check_bool "warning" true (contains s "free()"));
    t "dma drivers call the DMA macros (§6.1.2)" (fun () ->
        let spec = spec_of ~extra:"%dma_support true\n" "void f(int*:8^ xs);" in
        check_bool "WRITE_DMA" true
          (contains (Drivergen.driver_function spec (List.hd spec.Spec.funcs)) "WRITE_DMA"));
    t "implicit counts become runtime loops" (fun () ->
        let spec = spec_of "void f(int n, int*:n xs);" in
        let s = Drivergen.driver_function spec (List.hd spec.Spec.funcs) in
        check_bool "loop" true (contains s "for (w = 0; w < words; ++w)"));
    t "header declares user types and prototypes" (fun () ->
        let spec = timer_spec () in
        let h = Drivergen.header_file spec in
        check_bool "llong typedef" true (contains h "typedef");
        check_bool "prototype" true (contains h "void set_threshold(llong thold);"));
    t "test suite skeleton calls every driver (Fig 8.8)" (fun () ->
        let spec = timer_spec () in
        let s = Drivergen.test_suite spec in
        List.iter
          (fun (f : Spec.func) ->
            check_bool f.Spec.name true (contains s (f.Spec.name ^ "(")))
          spec.Spec.funcs);
  ]

let interrupt_codegen_tests =
  [
    t "arbiter gains an IRQ port and controller when enabled (§10.2)" (fun () ->
        let spec = spec_of ~extra:"%interrupt_support true\n" "int f(int x);" in
        let s = Arbitergen.generate spec in
        check_bool "IRQ port" true (contains s "IRQ");
        check_bool "latch" true (contains s "irq_latch");
        check_bool "valid design" true (Hdl_ast.validate (Arbitergen.design spec) = Ok ());
        let plain = spec_of "int f(int x);" in
        check_bool "absent when disabled" false
          (contains (Arbitergen.generate plain) "irq_latch"));
    t "drivers use SPLICE_WAIT_FOR_IRQ and define an ISR (§10.2)" (fun () ->
        let spec = spec_of ~extra:"%interrupt_support true\n" "int f(int x);" in
        let src = Drivergen.source_file spec in
        check_bool "ISR" true (contains src "void splice_isr(void)");
        check_bool "wait macro" true (contains src "SPLICE_WAIT_FOR_IRQ(func_addr)");
        check_bool "no polling wait" false (contains src "WAIT_FOR_RESULTS(func_addr)"));
    t "interrupt controller costs a little area" (fun () ->
        let plain = spec_of "int f(int x);" in
        let irq = spec_of ~extra:"%interrupt_support true\n" "int f(int x);" in
        let u s = (Splice.Resources.estimate s).Splice.Resources.slices in
        check_bool "slightly bigger" true (u irq > u plain && u irq < u plain + 50));
  ]

let project_tests =
  [
    t "timer project matches Figs 8.3 + 8.7 file lists" (fun () ->
        let p = Project.generate ~gen_date:"2007-05-01" (timer_spec ()) in
        let paths = List.map (fun (f : Project.file) -> f.path) (Project.files p) in
        List.iter
          (fun expected -> check_bool expected true (List.mem expected paths))
          [
            "plb_interface.vhd";
            "user_hw_timer.vhd";
            "func_enable.vhd";
            "func_disable.vhd";
            "func_set_threshold.vhd";
            "func_get_threshold.vhd";
            "func_get_snapshot.vhd";
            "func_get_clock.vhd";
            "func_get_status.vhd";
            "splice_lib.h";
            "Makefile";
            "hw_timer_driver.c";
            "hw_timer_driver.h";
          ];
        check_int "14 files" 14 (List.length paths));
    t "write_to creates the device subdirectory (§3.2.3)" (fun () ->
        let dir = Filename.temp_file "splice" "" in
        Sys.remove dir;
        let p = Project.generate ~gen_date:"t" (timer_spec ()) in
        let written = Project.write_to ~dir p in
        check_int "14 files" 14 (List.length written);
        check_bool "subdir" true (Sys.is_directory (Filename.concat dir "hw_timer"));
        (* refuses to overwrite without force *)
        (match Project.write_to ~dir p with
        | _ -> Alcotest.fail "expected refusal"
        | exception Failure _ -> ());
        ignore (Project.write_to ~force:true ~dir p);
        List.iter Sys.remove written;
        Sys.rmdir (Filename.concat dir "hw_timer");
        Sys.rmdir dir);
    t "unknown bus fails generation" (fun () ->
        let spec = { (spec_of "void f(int x);") with Spec.bus_name = "vme" } in
        match Project.generate spec with
        | _ -> Alcotest.fail "expected failure"
        | exception Error.Splice_error _ -> ());
  ]

let linuxgen_tests =
  [
    t "kernel module has the platform-driver skeleton (§10.2)" (fun () ->
        let spec = spec_of "int f(int x);\nvoid g(int x);" in
        let src = Linuxgen.kernel_module spec in
        check_bool "ioremap" true (contains src "devm_ioremap");
        check_bool "mmap" true (contains src "remap_pfn_range");
        check_bool "misc device" true (contains src "misc_register");
        check_bool "base address" true (contains src "0x80004000");
        check_bool "module_platform_driver" true
          (contains src "module_platform_driver(dev_driver)");
        check_bool "no leftover markers" true (Template.markers_in src = []));
    t "userspace shim maps physical to virtual (§10.2)" (fun () ->
        let spec = spec_of "int f(int x);" in
        let h = Linuxgen.userspace_header spec in
        check_bool "mmap" true (contains h "mmap(");
        check_bool "SET_ADDRESS over virt base" true
          (contains h "#define SET_ADDRESS(id) ((uintptr_t)(splice_virt_base + (id)))"));
    t "interrupt support adds an IRQ handler + blocking read" (fun () ->
        let spec = spec_of ~extra:"%interrupt_support true\n" "int f(int x);" in
        let src = Linuxgen.kernel_module spec in
        check_bool "irq handler" true (contains src "devm_request_irq");
        check_bool "wait queue" true (contains src "wait_event_interruptible");
        let h = Linuxgen.userspace_header spec in
        check_bool "irq wait macro" true (contains h "SPLICE_WAIT_FOR_IRQ"));
    t "strictly synchronous buses get a polling WAIT_FOR_RESULTS" (fun () ->
        let spec = spec_of ~bus:"apb" "int f(int x);" in
        check_bool "poll" true
          (contains (Linuxgen.userspace_header spec) "while (!(st &"));
    t "non-memory-mapped buses rejected" (fun () ->
        let spec = spec_of ~bus:"fcb" "int f(int x);" in
        match Linuxgen.files spec with
        | _ -> Alcotest.fail "expected rejection"
        | exception Error.Splice_error _ -> ());
    t "project --linux adds the two files" (fun () ->
        let spec = spec_of "int f(int x);" in
        let plain = List.length (Project.files (Project.generate ~gen_date:"t" spec)) in
        let files = Project.files (Project.generate ~gen_date:"t" ~linux:true spec) in
        check_int "two more" (plain + 2) (List.length files);
        check_bool "module listed" true
          (List.exists (fun (f : Project.file) -> f.path = "dev_linux.c") files);
        check_bool "shim listed" true
          (List.exists (fun (f : Project.file) -> f.path = "splice_linux.h") files));
  ]

let api_tests =
  [
    t "installed library becomes a %bus_type target (§7.2)" (fun () ->
        let lib : Api.adapter_library =
          {
            lib_name = "testbus";
            caps = { Fcb.caps with Bus_caps.name = "testbus" };
            engine_config = Fcb.engine_config;
            wait_mode = `Null;
            check_params = (fun _ -> Ok ());
            marker_loader =
              [ ("CALC_DONE_WIDTH", fun s -> string_of_int (max 1 s.Spec.total_instances)) ];
            adapter_template = "-- %COMP_NAME% on %GEN_DATE% (%CALC_DONE_WIDTH%)";
            driver_header = (fun _ -> "/* test */");
          }
        in
        Api.install lib;
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type testbus\n%bus_width 32\nint f(int x);"
        in
        let p = Project.generate ~gen_date:"t" spec in
        check_bool "adapter generated" true
          (List.exists
             (fun (f : Project.file) -> f.path = "testbus_interface.vhd")
             (Project.files p));
        (* the simulation connects through the engine config too *)
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior (fun inputs ->
                  [ List.hd (List.assoc "x" inputs) ]))
        in
        let r, _ = Host.call host ~func:"f" ~args:[ ("x", [ 5L ]) ] in
        Alcotest.(check int64) "works" 5L (List.hd r);
        Api.uninstall "testbus");
    t "library parameter checker is enforced (§7.1.2)" (fun () ->
        let lib : Api.adapter_library =
          {
            lib_name = "fussy";
            caps = { Fcb.caps with Bus_caps.name = "fussy" };
            engine_config = Fcb.engine_config;
            wait_mode = `Null;
            check_params = (fun _ -> Error [ "fussy bus rejects everything" ]);
            marker_loader = [];
            adapter_template = "-- %COMP_NAME%";
            driver_header = (fun _ -> "");
          }
        in
        Api.install lib;
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type fussy\n%bus_width 32\nint f(int x);"
        in
        (match Project.generate ~gen_date:"t" spec with
        | _ -> Alcotest.fail "expected rejection"
        | exception Error.Splice_error e ->
            check_bool "reason" true (contains e.Error.message "fussy"));
        Api.uninstall "fussy");
  ]

let tests =
  [
    ("codegen.macros", macro_tests);
    ("codegen.busgen", busgen_tests);
    ("codegen.stubgen", stubgen_tests);
    ("codegen.arbitergen", arbitergen_tests);
    ("codegen.drivergen", drivergen_tests);
    ("codegen.interrupts", interrupt_codegen_tests);
    ("codegen.linux", linuxgen_tests);
    ("codegen.project", project_tests);
    ("codegen.api", api_tests);
  ]
