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
    t "base addresses print as %08Lx does" (fun () ->
        let spec = spec_of "void f(int x);" in
        List.iter
          (fun a ->
            let expected = Printf.sprintf "%08Lx" (Option.value a ~default:0L) in
            Alcotest.(check string) expected expected
              (Spec.base_address_hex { spec with Spec.base_address = a }))
          [
            None; Some 0L; Some 0xAL; Some 0x80004000L; Some 0xFFFF_FFFFL;
            Some 0x1_0000_0000L; Some Int64.max_int; Some (-1L); Some Int64.min_int;
          ]);
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
    t "stub FSM steps through the input states to IO_DONE" (fun () ->
        let spec = spec_of "int f(int*:4 xs);" in
        let s = Stubgen.generate spec (List.hd spec.Spec.funcs) in
        check_bool "state constant" true (contains s "constant IN_xs");
        check_bool "state register" true (contains s "signal cur_state");
        check_bool "case on the state" true (contains s "case cur_state is");
        check_bool "input state arm" true (contains s "when IN_xs =>");
        check_bool "IO_DONE raised" true (contains s "IO_DONE <= '1';"));
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
    t "arbiter muxes outputs by FUNC_ID and packs CALC_DONE (§5.2)" (fun () ->
        let spec = spec_of "int f(int x);\nint g(int x);" in
        let s = Arbitergen.generate spec in
        check_bool "DATA_OUT mux" true
          (contains s
             "DATA_OUT <= f1_data_out when (FUNC_ID = \"01\") else \
              f2_data_out when (FUNC_ID = \"10\") else (others => '0');");
        check_bool "IO_DONE mux" true
          (contains s "IO_DONE <= f1_io_done when (FUNC_ID = \"01\")");
        check_bool "CALC_DONE bit (id-1) per instance" true
          (contains s "CALC_DONE <= f2_calc_done & f1_calc_done;"));
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

(* -------- generated-text pins -------- *)

(* Per-file MD5s of whole generated projects: a generator or printer change
   that moves one byte of any generated file fails here, naming the file.
   The corpus is the shipped example specs, one seeded [Specgen] spec per
   bus, and [sites_source] in both HDLs. [sites_source] reaches every
   variable-length counter (input, by-reference readback, result), every
   shape of the last-word index (wide element, packed, plain, struct
   fields), the captured index value and the completion-interrupt
   controller. *)
let sites_source hdl =
  Printf.sprintf
    "%%device_name sites\n%%target_hdl %s\n%%bus_type plb\n%%bus_width 32\n\
     %%base_address 0x80020000\n%%interrupt_support true\n\
     %%user_struct point { int x; int y; }\n\
     void wide(int n, double*:n xs);\n\
     void packed(int n, char*:n+ bs);\n\
     int plain(int n, int*:n ys);\n\
     point fields(int n, point*:n& ps);\n\
     int*:m result(int m);\n"
    hdl

let pinned_buses = [ "plb"; "opb"; "fcb"; "apb"; "ahb"; "wishbone"; "avalon"; "axi" ]

let golden_corpus () =
  let examples =
    List.map
      (fun (name, path) -> ("examples/" ^ name, Test_specs_dir.read_file path))
      (Test_specs_dir.spec_files ())
  in
  if examples = [] then Alcotest.fail "examples/specs not found";
  let generated =
    List.mapi
      (fun i bus ->
        ( "specgen/" ^ bus,
          Specgen.render (Specgen.spec ~buses:[ bus ] (Specgen.Rng.make (2200 + i))) ))
      pinned_buses
  in
  examples @ generated
  @ [ ("sites/vhdl", sites_source "vhdl"); ("sites/verilog", sites_source "verilog") ]

let file_pins src =
  List.map
    (fun (f : Project.file) -> (f.path, Digest.to_hex (Digest.string f.contents)))
    (Project.files (Project.from_source ~gen_date:"pinned" src))

let golden_pins =
  [
    ( "examples/fir.splice",
      [
        ("plb_interface.vhd", "92c63f2cb2fa42175a5f53f35a636ce7");
        ("user_fir.vhd", "112942b48164d0e7d7bb068a9f822c07");
        ("func_set_taps.vhd", "86b7517d14d050fee0e788da20869e24");
        ("func_filter.vhd", "c7f7d1ceaa87917f976c5086a80f527c");
        ("func_decimate.vhd", "0c1038b80745ef9cf05a687c7bba38d1");
        ("splice_lib.h", "df8658a37fceb00e4afd76772a472b3b");
        ("Makefile", "9363c24061365d40ec09ea4c0102561f");
        ("fir_driver.h", "98db9413fe3e9c7bb9b80157692bef8a");
        ("fir_driver.c", "cddb791c42ca6534e2099f16b145bb28");
        ("test_fir.c", "e7735b444f8e90be7c6b99a7e348d046");
      ] );
    ( "examples/hw_timer.splice",
      [
        ("plb_interface.vhd", "5c3e2c5262f8349b9c8389737158551a");
        ("user_hw_timer.vhd", "7495fa94b62c9cb365fea7aee48df30e");
        ("func_disable.vhd", "3031ca83b75b1ce373f39246b0d92016");
        ("func_enable.vhd", "fb65f3aa41a717aa6c99a1a88ea1a3e1");
        ("func_set_threshold.vhd", "1d74ed49710e1b61d863960026c13256");
        ("func_get_threshold.vhd", "775e54b7eca0921adbe387f1735a3e26");
        ("func_get_snapshot.vhd", "fbec46bd5593725f3b67c1a6a070dc0c");
        ("func_get_clock.vhd", "978edcbc5606d169f8bf2a8a700fe890");
        ("func_get_status.vhd", "9d5fb7ddd3c9bdb298e108027e1ff1b6");
        ("splice_lib.h", "9f6683cbdd8c7fc37e3113c439457128");
        ("Makefile", "78d60a8b832d894e71696f5556b427f3");
        ("hw_timer_driver.h", "fcc6d2ef1370975efe4228861b521c2c");
        ("hw_timer_driver.c", "207442b1b84dfaff91a1bcae8dcd7b7e");
        ("test_hw_timer.c", "cac34100e2ea432f0984bded3825d1b2");
      ] );
    ( "examples/interp.splice",
      [
        ("fcb_interface.vhd", "eaba5de5f66b6cfc041bbe5c02d0c54d");
        ("user_interp.vhd", "e8bbc2b417b8499a6cef691bbf276830");
        ("func_interp.vhd", "660b1a012aa0af61cd0c498efe8dda9c");
        ("splice_lib.h", "1a61bf1451d77ae5343eef95311f5355");
        ("Makefile", "be05c2567daa1f88c2d1f36878f7e38e");
        ("interp_driver.h", "fd787e35da6a2ad2e3c3bde2e759fedf");
        ("interp_driver.c", "a76bf1fdff0524cd93916ee539a61395");
        ("test_interp.c", "02f5cddfffe7d779524a2a29fde5a5a8");
      ] );
    ( "examples/nav_points.splice",
      [
        ("avalon_interface.vhd", "aa5e572086c1d3c6c76a1a4720701138");
        ("user_nav.vhd", "fa4a06ff0cceefbf875f02b0e65bb44e");
        ("func_centroid.vhd", "2dd8945117d04cf027913bcc1bc4124c");
        ("func_smooth.vhd", "2b449dc1155c3c52118382dc484ba7eb");
        ("splice_lib.h", "607a953035a19a48f5f8ce6102f7e928");
        ("Makefile", "c429941c54d79159264b9d7c90d2204a");
        ("nav_driver.h", "b22518a4fcbfba1fea25ecda9600e8ca");
        ("nav_driver.c", "39bef13c527df50814388dbf2729a359");
        ("test_nav.c", "d5475ea130b71d6a52faff3f2ca32180");
      ] );
    ( "examples/packet_cksum.splice",
      [
        ("plb_interface.vhd", "90dd2a364864d9b0c55473017c772722");
        ("user_cksum.v", "46b62ba013b26f466819e70bfbf1d548");
        ("func_fletcher32.v", "5d6e89a32c63c976a75fafcf118781c4");
        ("func_parity.v", "62d5e298e2ef3939a54adf0d72961eaf");
        ("func_prime_tables.v", "011d04e0c320e88f272102b361cd1cd4");
        ("splice_lib.h", "343289f0a7b3e6de52e0ebe3980f91d2");
        ("Makefile", "b9e4418be897fe90c91e72a38b8a5f55");
        ("cksum_driver.h", "5a05937586b201d491e6ba6bd3ff8e6e");
        ("cksum_driver.c", "8f131b1e9096321ff60481530c728785");
        ("test_cksum.c", "a4393b4a6f42780c92a7d55631ab7ac4");
      ] );
    ( "specgen/plb",
      [
        ("plb_interface.vhd", "d5f395d169ce7e201a867328b4ef39a0");
        ("user_randomdev.vhd", "af84d4d12dbdaa481163ba8afc043edb");
        ("func_fn_0.vhd", "c048ecddc9e596a167a7dddff93f5b92");
        ("func_fn_1.vhd", "bcbb572b926425ae1ad141cdc0413b6b");
        ("splice_lib.h", "6e74a0339f5eba13523515e66e143aad");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "ae7daf53d134bf79d2732b00dafa50ff");
        ("randomdev_driver.c", "ccb9e7a615255601b7fbffd365bf1682");
        ("test_randomdev.c", "0da45e64382170300de4a5e017fcf758");
      ] );
    ( "specgen/opb",
      [
        ("opb_interface.vhd", "c569fbe0bd2c1346761ef0e64e4f2046");
        ("user_randomdev.vhd", "5640c19e07d5ae87acbd40bd53d5915c");
        ("func_fn_0.vhd", "0b17987163003ecf1e1340a00a201620");
        ("func_fn_1.vhd", "855a46d42326d58b5728ac0715fa8ac9");
        ("splice_lib.h", "689efb5c2dd8c86d56e7ae86032272d0");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "24848a50d1306e9c45577827abe6daea");
        ("randomdev_driver.c", "03ae896894cf56511b970b2bb98beaba");
        ("test_randomdev.c", "53337f7cf9563ff23d33b9f560e7eac5");
      ] );
    ( "specgen/fcb",
      [
        ("fcb_interface.vhd", "a1f599b3b1fab27bc2d6fd1f0bb5c627");
        ("user_randomdev.vhd", "4b8e669caba872145cf176f46e512195");
        ("func_fn_0.vhd", "9457c64e9027a8ccda213b647c391ed1");
        ("func_fn_1.vhd", "e91f40ceef015afb90d5f51c017a1af4");
        ("func_fn_2.vhd", "7483fd867ca2773066f7939cd8deefd0");
        ("func_fn_3.vhd", "77257032baa2f231775d93b300b801e9");
        ("splice_lib.h", "efae067727e0c0c1a392ab6fe4128d31");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "44e388b1e0efc50ea02d737984907e1e");
        ("randomdev_driver.c", "f1ddafc208c7161e0ea4d30a23185e6f");
        ("test_randomdev.c", "32ed8626d96b6683f55ac65d98e8e0da");
      ] );
    ( "specgen/apb",
      [
        ("apb_interface.vhd", "1b3b217a6983fb4a6962af0b4885ce48");
        ("user_randomdev.vhd", "1cfe88422d1fdf865d4f8ed5b7888cb5");
        ("func_fn_0.vhd", "62846e1cd0bffbd86ae0eb155d57eaad");
        ("func_fn_1.vhd", "6f026dc65a70405779f40f4db197b142");
        ("func_fn_2.vhd", "850df5983b4d5714e4e1fcfe22b4eb98");
        ("func_fn_3.vhd", "5568361e9f6080490e2ce5d07cc6f4e0");
        ("splice_lib.h", "9e6c18f54778b2fad70d0c6a95651fa8");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "6c3f538ff3348aad84c3877e11bd58ce");
        ("randomdev_driver.c", "d72c0a6038e074bed215250bb5679ec8");
        ("test_randomdev.c", "aa02131fcbb33d85a37657570d45c887");
      ] );
    ( "specgen/ahb",
      [
        ("ahb_interface.vhd", "d307839bc73ba1600eff150ce5482744");
        ("user_randomdev.vhd", "928217ff04511004532228d7a63d22a0");
        ("func_fn_0.vhd", "26cad0370e47f4ff02a5224fd2765f3f");
        ("splice_lib.h", "e3c7d6c5d9efc2974ba7fece9564a7b3");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "c389d51a8b243161069105ec7ff2ab87");
        ("randomdev_driver.c", "b50c321c2bb990360651ce5e83df5885");
        ("test_randomdev.c", "f07c52c223dec9a68ad6fe9b4f71597c");
      ] );
    ( "specgen/wishbone",
      [
        ("wishbone_interface.vhd", "0c9450bcd82d60ffb4ccd843bed3a95d");
        ("user_randomdev.vhd", "6478c3e21f4d4df5dffd38baa2cc6e4d");
        ("func_fn_0.vhd", "448842d0a98f7af09dca107dede1f8b0");
        ("func_fn_1.vhd", "444f498bcacd6cb90352337d8da699f8");
        ("splice_lib.h", "b5d7d5c432c8efeff6b06445eda36784");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "fed36aa90f2fd59e71129fed920053d9");
        ("randomdev_driver.c", "7787c16fe4fafc3c58f7a9bbd694a47e");
        ("test_randomdev.c", "2adfec08549cea4cb9008c6e69239ae7");
      ] );
    ( "specgen/avalon",
      [
        ("avalon_interface.vhd", "0cbd65e80d95abefe6d6ce51e2d9ac91");
        ("user_randomdev.vhd", "8f2442bf49e80ee702904f85884eca28");
        ("func_fn_0.vhd", "6ca7c098688c4073af3caab9b25ac932");
        ("func_fn_1.vhd", "c22fc13344c5f565ac83adc158841aff");
        ("func_fn_2.vhd", "a9f3d335b1fa1bc152681cba8628c596");
        ("func_fn_3.vhd", "cb9cb78991a4ff5fcb94e47162a1dcb7");
        ("splice_lib.h", "8000d8bdfd6b9aefcc3ce5cdafe6f398");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "c2cc5648ca32c775d8185fc84c157b40");
        ("randomdev_driver.c", "4a9257a7b0d43a26b51e5e546ecdfb19");
        ("test_randomdev.c", "4f7f17fe8ff90ea8438d7cd071b66290");
      ] );
    ( "specgen/axi",
      [
        ("axi_interface.vhd", "fe2af6921c2f78b52fe5c7773fd7663b");
        ("user_randomdev.vhd", "87b260ff8ae3e45a7b68869d8cf2245d");
        ("func_fn_0.vhd", "31c0078a688b404cb90b93e62291d16e");
        ("func_fn_1.vhd", "7a2a5c58016ec4d2f27e04ef8cd4724d");
        ("func_fn_2.vhd", "5207ac918ecdb82d864658a6cd5dbff8");
        ("splice_lib.h", "79952f035fc6b7717663770cacd69a81");
        ("Makefile", "e766406a373e5dc28634c98461c6851f");
        ("randomdev_driver.h", "666b0de508baef0d5c7e4729007cbd55");
        ("randomdev_driver.c", "15439ed9e4fc549dca93dddb2c341f4c");
        ("test_randomdev.c", "32d255eda985655f5b7d38c40916072a");
      ] );
    ( "sites/vhdl",
      [
        ("plb_interface.vhd", "4e08d21e81adee2e4f7961912feb3ee0");
        ("user_sites.vhd", "2bf04eb3767edbe4ef04b15268d3111e");
        ("func_wide.vhd", "7cecddd2e0fcf008005122d8939b672e");
        ("func_packed.vhd", "e7f2d959705d714c78cb8dc5d3c020bd");
        ("func_plain.vhd", "691feb6c03be783e6a09235aabd05143");
        ("func_fields.vhd", "c19da118364c98f61f3496dd9c24ba3a");
        ("func_result.vhd", "2a3cdcd5a2964cad448af5a1f41b7fcb");
        ("splice_lib.h", "0f0527ecaaa2fff75c7b0c5c5391e3b9");
        ("Makefile", "836ee86a4cc58159f0f57dfd1ff5f545");
        ("sites_driver.h", "4522ce00716db6947ee6809823bbc6a6");
        ("sites_driver.c", "3704fde8c45ef06a974f5bebca6ccc20");
        ("test_sites.c", "bf1eb97db09c1363633d8dc48af6e8f9");
      ] );
    ( "sites/verilog",
      [
        ("plb_interface.vhd", "4e08d21e81adee2e4f7961912feb3ee0");
        ("user_sites.v", "aa814b581c02a2caef2177154ebd4cb4");
        ("func_wide.v", "1f1f6a3037961eff08fc20c66512f48d");
        ("func_packed.v", "5cf7220d463b74e854879da5421bb321");
        ("func_plain.v", "6bf84b1e4134ba761d3a558000f8f08b");
        ("func_fields.v", "69e658b28d6a7929061c78b7a22db055");
        ("func_result.v", "3b050828ed652b1babcd084658ca8b6a");
        ("splice_lib.h", "0f0527ecaaa2fff75c7b0c5c5391e3b9");
        ("Makefile", "836ee86a4cc58159f0f57dfd1ff5f545");
        ("sites_driver.h", "4522ce00716db6947ee6809823bbc6a6");
        ("sites_driver.c", "3704fde8c45ef06a974f5bebca6ccc20");
        ("test_sites.c", "bf1eb97db09c1363633d8dc48af6e8f9");
      ] );
  ]

(* 32 seeded specs per bus, pinned as one MD5 over every generated file
   (path and contents) of every project: the printers see far more AST
   shapes here than in the per-file pins above. The same specs re-targeted
   at Verilog pin the Verilog printer. *)
let corpus_specs =
  lazy
    (let rng = Specgen.Rng.make 2300 in
     List.concat_map
       (fun _ ->
         List.map (fun bus -> Specgen.render (Specgen.spec ~buses:[ bus ] rng)) pinned_buses)
       (List.init 32 Fun.id))

let corpus_md5 srcs =
  let file (f : Project.file) = Digest.string (f.path ^ "\000" ^ f.contents) in
  List.concat_map
    (fun src -> List.map file (Project.files (Project.from_source ~gen_date:"pinned" src)))
    srcs
  |> String.concat "" |> Digest.string |> Digest.to_hex

let corpus_pins =
  [ ("vhdl", "2adbf4252983bc7194175403d6e84d3d"); ("verilog", "1ccd85ee526702f70a0cd3a691bf2f1f") ]

let golden_tests =
  [
    t "generated files match their pinned MD5s" (fun () ->
        List.iter
          (fun (label, src) ->
            Alcotest.(check (list (pair string string)))
              label
              (try List.assoc label golden_pins with Not_found -> [])
              (file_pins src))
          (golden_corpus ()));
    t "the seeded corpus matches its pinned MD5s" (fun () ->
        let specs = Lazy.force corpus_specs in
        let verilog = List.map (fun s -> "%target_hdl verilog\n" ^ s) specs in
        Alcotest.(check bool)
          "the re-targeted specs generate Verilog" true
          (List.exists
             (fun (f : Project.file) -> Filename.check_suffix f.path ".v")
             (Project.files (Project.from_source ~gen_date:"pinned" (List.hd verilog))));
        Alcotest.(check (list (pair string string)))
          "corpus MD5 per target language" corpus_pins
          [
            ("vhdl", corpus_md5 specs);
            ("verilog", corpus_md5 verilog);
          ]);
  ]

(* Every generated file is rendered into a buffer lent to it by [Emit]
   (one per domain, reused from file to file): no render may see another's
   text, whether it runs inside another render, after one that raised, or
   on another domain at the same time. *)
let project_text src =
  List.map
    (fun (f : Project.file) -> (f.path, f.contents))
    (Project.files (Project.from_source ~gen_date:"pinned" src))

let check_files = Alcotest.(check (list (pair string string)))

let render_tests =
  [
    t "integers print as string_of_int does" (fun () ->
        List.iter
          (fun i ->
            let b = Buffer.create 8 in
            Emit.add_int b i;
            Alcotest.(check (pair string string))
              (string_of_int i)
              (string_of_int i, string_of_int i)
              (Emit.int_to_string i, Buffer.contents b))
          ([ 999; 1000; 65535; 123_456_789; max_int; min_int; min_int + 1 ]
          @ List.init 601 (fun i -> i - 300)));
    t "a render nested inside a render matches separate renders" (fun () ->
        let spec = timer_spec () in
        let arbiter = Arbitergen.design spec in
        let vhdl = Vhdl.to_string arbiter and source = Drivergen.source_file spec in
        let inner = ref [] in
        let outer =
          Emit.render (fun b ->
              Emit.add b "<";
              inner := [ Vhdl.to_string arbiter ];
              Emit.add_int b 1234;
              inner := Drivergen.source_file spec :: !inner;
              Emit.add b ">")
        in
        Alcotest.(check (list string)) "inner renders" [ source; vhdl ] !inner;
        Alcotest.(check string) "outer render" "<1234>" outer;
        Alcotest.(check string) "the next render" vhdl (Vhdl.to_string arbiter));
    t "a generator that raises mid-file leaves the next project byte-identical" (fun () ->
        let src = Timer.spec_source in
        let before = project_text src in
        let arbiter = Arbitergen.design (timer_spec ()) in
        (* a comparison in value context: the printer raises half-way
           through the architecture *)
        let broken =
          {
            arbiter with
            Hdl_ast.body =
              arbiter.Hdl_ast.body
              @ [ Hdl_ast.Cassign (Ref "IRQ", Binop (Eq, Ref "IO_DONE", Ref "RST")) ];
          }
        in
        (match Vhdl.to_string broken with
        | _ -> Alcotest.fail "the broken design printed"
        | exception Invalid_argument _ -> ());
        (match
           Emit.render (fun b ->
               Emit.add b "half a file";
               raise Exit)
         with
        | _ -> Alcotest.fail "the render returned"
        | exception Exit -> ());
        check_files "after the failures" before (project_text src));
    t "the golden corpus generated on a 2-domain pool equals a sequential run" (fun () ->
        let srcs = Array.of_list (List.map snd (golden_corpus ())) in
        (* four rounds, so the domains render files at the same time *)
        let srcs = Array.concat [ srcs; srcs; srcs; srcs ] in
        let sequential = Array.map project_text srcs in
        let pooled = Pool.with_pool ~domains:2 (fun p -> Pool.map_ordered p project_text srcs) in
        Array.iteri (fun i files -> check_files (string_of_int i) files pooled.(i)) sequential);
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
    ("codegen.golden", golden_tests);
    ("codegen.render", render_tests);
  ]
