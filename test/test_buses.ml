(* Bus-level tests: registry, capabilities, per-bus end-to-end loopback,
   strictly synchronous semantics (APB), PLB native-signal adaptation
   (Figs 4.5-4.8), DMA behaviour and the adapter engine itself. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spec_of ?(bus = "plb") ?(extra = "") decls =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
    (Printf.sprintf
       "%%device_name d\n%%bus_type %s\n%%bus_width 32\n%%base_address 0x0\n%s%s"
       bus extra decls)

let registry_tests =
  [
    t "all built-in buses present (§3.2.1 + AHB)" (fun () ->
        List.iter
          (fun b -> check_bool b true (Registry.find b <> None))
          [ "plb"; "opb"; "fcb"; "apb"; "ahb"; "wishbone"; "avalon" ]);
    t "unknown bus not found" (fun () ->
        check_bool "none" true (Registry.find "vme" = None));
    t "capabilities match Ch 2" (fun () ->
        let caps b = Option.get (Registry.lookup_caps b) in
        check_bool "plb dma" true (caps "plb").Bus_caps.supports_dma;
        check_int "plb dma bytes" 256 (caps "plb").Bus_caps.dma_max_bytes;
        check_bool "fcb not memory mapped" false (caps "fcb").Bus_caps.memory_mapped;
        check_bool "fcb no dma" false (caps "fcb").Bus_caps.supports_dma;
        check_bool "apb strictly sync" false (caps "apb").Bus_caps.pseudo_async;
        check_bool "opb no burst" false (caps "opb").Bus_caps.supports_burst;
        check_int "ahb 16-beat bursts" 16 (caps "ahb").Bus_caps.max_burst_words;
        check_bool "wishbone burst, no dma" true
          ((caps "wishbone").Bus_caps.supports_burst
          && not (caps "wishbone").Bus_caps.supports_dma);
        check_bool "avalon dma" true (caps "avalon").Bus_caps.supports_dma);
    t "user registration and collision (§7.2)" (fun () ->
        let module Fake = struct
          include Plb

          let caps = { Plb.caps with Bus_caps.name = "fake" }
        end in
        Registry.register (module Fake);
        check_bool "found" true (Registry.find "fake" <> None);
        (match Registry.register (module Fake) with
        | () -> Alcotest.fail "expected collision"
        | exception Failure _ -> ());
        Registry.unregister "fake";
        check_bool "gone" true (Registry.find "fake" = None));
    t "built-ins cannot be shadowed" (fun () ->
        match Registry.register (module Plb) with
        | () -> Alcotest.fail "expected collision"
        | exception Failure _ -> ());
  ]

(* end-to-end: echo an array through a peripheral on the given bus *)
let loopback bus =
  let spec = spec_of ~bus "int f(int n, int*:n xs);" in
  let host =
    Host.create spec ~behaviors:(fun _ ->
        Stub_model.behavior ~cycles:3 (fun inputs ->
            [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
  in
  let xs = [ 3L; 5L; 7L; 11L ] in
  let r, cycles = Host.call host ~func:"f" ~args:[ ("n", [ 4L ]); ("xs", xs) ] in
  (List.hd r, cycles)

let endtoend_tests =
  List.map
    (fun bus ->
      t (Printf.sprintf "loopback sum on %s" bus) (fun () ->
          let r, cycles = loopback bus in
          Alcotest.(check int64) "sum" 26L r;
          check_bool "cycles sane" true (cycles > 0 && cycles < 1000)))
    [ "plb"; "opb"; "fcb"; "apb"; "ahb"; "wishbone"; "avalon" ]
  @ [
      t "relative speed: fcb <= plb <= opb" (fun () ->
          let _, plb = loopback "plb" in
          let _, opb = loopback "opb" in
          let _, fcb = loopback "fcb" in
          check_bool "fcb fastest" true (fcb <= plb);
          check_bool "opb slowest" true (plb <= opb));
    ]

let apb_tests =
  [
    t "APB drivers poll CALC_DONE before reading (§6.1.1)" (fun () ->
        let spec = spec_of ~bus:"apb" "int f(int x);" in
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:20 (fun inputs ->
                  [ List.hd (List.assoc "x" inputs) ]))
        in
        let r, _ = Host.call host ~func:"f" ~args:[ ("x", [ 77L ]) ] in
        Alcotest.(check int64) "correct despite long calc" 77L (List.hd r);
        check_bool "polled at least once" true (Cpu.polls (Host.cpu host) >= 1));
    t "APB reads without polling return garbage (strictly synchronous, §4.2.2)"
      (fun () ->
        let spec = spec_of ~bus:"apb" "int f(int x);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:30 (fun inputs ->
                  [ List.hd (List.assoc "x" inputs) ]))
        in
        let port =
          Apb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec (Peripheral.sis periph)
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        (* a broken driver: write, then read immediately with no poll *)
        let prog =
          [
            Op.Write_single (1, Bits.of_int ~width:32 55);
            Op.Read_single 1;
          ]
        in
        let words, _ = Cpu.run_program kernel cpu prog in
        (* the peripheral is still calculating: the sampled data is zero *)
        Alcotest.(check int64) "garbage" 0L (Bits.to_int64 (List.hd words)));
    t "status register read returns CALC_DONE vector (§4.2.2)" (fun () ->
        let spec = spec_of ~bus:"apb" "int f(int x);\nint g(int x);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:1 (fun _ -> [ 0L ]))
        in
        let port =
          Apb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec (Peripheral.sis periph)
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        (* start g (id 2), let it finish, then read the status register *)
        let _ =
          Cpu.run_program kernel cpu [ Op.Write_single (2, Bits.of_int ~width:32 0) ]
        in
        Kernel.run kernel 5;
        let words, _ = Cpu.run_program kernel cpu [ Op.Read_single 0 ] in
        check_int "bit 1 (id 2) set" 0b10 (Bits.to_int (List.hd words)));
  ]

let dma_tests =
  [
    t "DMA transfer delivers identical data" (fun () ->
        let spec =
          spec_of ~extra:"%dma_support true\n" "int f(int n, int*:n^ xs);"
        in
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior (fun inputs ->
                  [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
        in
        let xs = List.init 16 Int64.of_int in
        let r, _ = Host.call host ~func:"f" ~args:[ ("n", [ 16L ]); ("xs", xs) ] in
        Alcotest.(check int64) "sum" 120L (List.hd r));
    t "DMA on a non-DMA bus rejected at driver level" (fun () ->
        let spec =
          spec_of ~extra:"%dma_support true\n" "int f(int n, int*:n^ xs);"
        in
        let f = List.hd spec.Spec.funcs in
        let plan = Plan.make spec f ~values:(fun _ -> 2) in
        match
          Program.of_plan ~max_burst_words:1 ~supports_dma:false plan
            ~args:[ ("n", [ 2L ]); ("xs", [ 1L; 2L ]) ]
        with
        | _ -> Alcotest.fail "expected rejection"
        | exception Invalid_argument _ -> ());
  ]

let plb_native_tests =
  [
    t "PLB native mirror follows Figs 4.7/4.8" (fun () ->
        let spec = spec_of "int f(int x);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:1 (fun inputs ->
                  [ List.hd (List.assoc "x" inputs) ]))
        in
        let sis = Peripheral.sis periph in
        let native = Plb.native_mirror kernel ~ce_slots:2 sis in
        let port =
          Plb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec sis
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        (* record native signal activity over a full write+read call *)
        let saw_wr_req = ref false
        and saw_wr_ack = ref false
        and saw_rd_req = ref false
        and saw_rd_ack = ref false
        and ce_onehot_ok = ref true in
        Kernel.add_check kernel "plb-native-sampler" (fun _ ->
            if Signal.get_bool native.Plb.Native.wr_req then saw_wr_req := true;
            if Signal.get_bool native.Plb.Native.wr_ack then saw_wr_ack := true;
            if Signal.get_bool native.Plb.Native.rd_req then saw_rd_req := true;
            if Signal.get_bool native.Plb.Native.rd_ack then saw_rd_ack := true;
            let wr_ce = Signal.get native.Plb.Native.wr_ce in
            if
              (not (Bits.is_zero wr_ce))
              && Bits.one_hot_to_index wr_ce = None
            then ce_onehot_ok := false);
        let prog =
          [ Op.Write_single (1, Bits.of_int ~width:32 9); Op.Read_single 1 ]
        in
        let words, _ = Cpu.run_program kernel cpu prog in
        check_int "result" 9 (Bits.to_int (List.hd words));
        check_bool "WR_REQ strobed (Fig 4.6)" true !saw_wr_req;
        check_bool "WR_ACK raised" true !saw_wr_ack;
        check_bool "RD_REQ strobed (Fig 4.5)" true !saw_rd_req;
        check_bool "RD_ACK raised" true !saw_rd_ack;
        check_bool "WR_CE stays one-hot (§4.3.2)" true !ce_onehot_ok);
  ]

let fcb_apb_native_tests =
  [
    t "FCB native mirror maps one-to-one (§4.3.2)" (fun () ->
        let spec = spec_of ~bus:"fcb" "int f(int x);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:1 (fun inputs ->
                  [ List.hd (List.assoc "x" inputs) ]))
        in
        let sis = Peripheral.sis periph in
        let native = Fcb.native_mirror kernel sis in
        let port =
          Fcb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec sis
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        let saw_store = ref false and saw_load = ref false and saw_done = ref false in
        Kernel.add_check kernel "fcb-native-sampler" (fun _ ->
            let decoded = Signal.get_bool native.Fcb.Native.decoded in
            let op = Signal.get_bool native.Fcb.Native.operation in
            if decoded && op then saw_store := true;
            if decoded && not op then saw_load := true;
            if Signal.get_bool native.Fcb.Native.done_ then saw_done := true;
            (* the register field always mirrors FUNC_ID *)
            check_int "REG = FUNC_ID"
              (Signal.get_int sis.Sis_if.func_id)
              (Signal.get_int native.Fcb.Native.reg));
        let words, _ =
          Cpu.run_program kernel cpu
            [ Op.Write_single (1, Bits.of_int ~width:32 7); Op.Read_single 1 ]
        in
        check_int "result" 7 (Bits.to_int (List.hd words));
        check_bool "store seen" true !saw_store;
        check_bool "load seen" true !saw_load;
        check_bool "done seen" true !saw_done);
    t "APB native mirror: PADDR encodes base + 4*id (§4.3.2)" (fun () ->
        let spec = spec_of ~bus:"apb" "int f(int x);\nint g(int x);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:1 (fun _ -> [ 0L ]))
        in
        let sis = Peripheral.sis periph in
        let native = Apb.native_mirror kernel ~base_address:0x1000L sis in
        let port =
          Apb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec sis
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        let addrs = ref [] in
        Kernel.add_check kernel "apb-native-sampler" (fun _ ->
            if Signal.get_bool native.Apb.Native.psel then
              addrs := Signal.get_int native.Apb.Native.paddr :: !addrs);
        let _ =
          Cpu.run_program kernel cpu
            [
              Op.Write_single (2, Bits.of_int ~width:32 1);
              Op.Write_single (1, Bits.of_int ~width:32 1);
            ]
        in
        check_bool "g's slot addressed" true (List.mem 0x1008 !addrs);
        check_bool "f's slot addressed" true (List.mem 0x1004 !addrs));
  ]

let engine_tests =
  [
    t "submit while busy rejected" (fun () ->
        let spec = spec_of "void f(int x);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ -> Stub_model.null_behavior)
        in
        let port =
          Plb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec (Peripheral.sis periph)
        in
        port.Bus_port.submit (Bus_port.Write { func_id = 1; data = [ Bits.zero 32 ] });
        match
          port.Bus_port.submit (Bus_port.Write { func_id = 1; data = [ Bits.zero 32 ] })
        with
        | () -> Alcotest.fail "expected busy failure"
        | exception Failure _ -> ());
    t "burst moves words with a single setup (cheaper than singles)" (fun () ->
        let run burst =
          let spec =
            spec_of ~bus:"fcb"
              ~extra:(Printf.sprintf "%%burst_support %b\n" burst)
              "void f(int*:8 xs);"
          in
          let host =
            Host.create spec ~behaviors:(fun _ -> Stub_model.null_behavior)
          in
          let xs = List.init 8 Int64.of_int in
          snd (Host.call host ~func:"f" ~args:[ ("xs", xs) ])
        in
        check_bool "burst cheaper" true (run true < run false));
    t "pulse_reset quiesces the peripheral" (fun () ->
        let spec = spec_of "int f(int*:4 xs);" in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior (fun _ -> [ 1L ]))
        in
        let port =
          Plb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec (Peripheral.sis periph)
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        (* push two of four words, then reset mid-transfer *)
        let _ =
          Cpu.run_program kernel cpu
            [
              Op.Write_single (1, Bits.of_int ~width:32 1);
              Op.Write_single (1, Bits.of_int ~width:32 2);
            ]
        in
        port.Bus_port.pulse_reset ();
        Kernel.run kernel 3;
        let stub = Peripheral.stub periph "f" () in
        check_bool "back to first input" true
          (Stub_model.state stub = Stub_model.Input 0));
  ]

let irq_tests =
  [
    t "interrupt wait issues exactly one ack read (§10.2)" (fun () ->
        let spec =
          spec_of ~bus:"apb" ~extra:"%interrupt_support true\n" "int f(int x);"
        in
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:100 (fun inputs ->
                  [ List.hd (List.assoc "x" inputs) ]))
        in
        let r, _ = Host.call host ~func:"f" ~args:[ ("x", [ 5L ]) ] in
        Alcotest.(check int64) "result" 5L (List.hd r);
        check_int "one ack" 1 (Cpu.polls (Host.cpu host)));
    t "polling count grows with calc length, irq count does not" (fun () ->
        let run ~irq calc =
          let spec =
            spec_of ~bus:"apb"
              ~extra:(Printf.sprintf "%%interrupt_support %b\n" irq)
              "int f(int x);"
          in
          let host =
            Host.create spec ~behaviors:(fun _ ->
                Stub_model.behavior ~cycles:calc (fun inputs ->
                    [ List.hd (List.assoc "x" inputs) ]))
          in
          ignore (Host.call host ~func:"f" ~args:[ ("x", [ 1L ]) ]);
          Cpu.polls (Host.cpu host)
        in
        check_bool "polling grows" true (run ~irq:false 128 > run ~irq:false 8);
        check_int "irq constant (short)" 1 (run ~irq:true 8);
        check_int "irq constant (long)" 1 (run ~irq:true 128));
    t "irq latch: pending before the wait starts is still caught" (fun () ->
        (* fast calc: the CALC_DONE edge happens while the driver is still
           writing; the latch must hold it for the later wait *)
        let spec =
          spec_of ~bus:"apb" ~extra:"%interrupt_support true\n"
            "int f(int*:4 xs);"
        in
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:1 (fun inputs ->
                  [ List.hd (List.assoc "xs" inputs) ]))
        in
        let r, _ =
          Host.call host ~func:"f" ~args:[ ("xs", [ 7L; 8L; 9L; 10L ]) ]
        in
        Alcotest.(check int64) "result" 7L (List.hd r));
    t "interrupts work across repeated calls" (fun () ->
        let spec =
          spec_of ~bus:"plb" ~extra:"%interrupt_support true\n" "int f(int x);"
        in
        let host =
          Host.create spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:10 (fun inputs ->
                  [ Int64.neg (List.hd (List.assoc "x" inputs)) ]))
        in
        for i = 1 to 4 do
          let r, _ =
            Host.call host ~func:"f" ~args:[ ("x", [ Int64.of_int i ]) ]
          in
          Alcotest.(check int64) "result" (Int64.of_int (-i)) (List.hd r)
        done);
  ]

let tests =
  [
    ("buses.registry", registry_tests);
    ("buses.end-to-end", endtoend_tests);
    ("buses.apb", apb_tests);
    ("buses.dma", dma_tests);
    ("buses.plb-native", plb_native_tests);
    ("buses.fcb-apb-native", fcb_apb_native_tests);
    ("buses.engine", engine_tests);
    ("buses.interrupts", irq_tests);
  ]
