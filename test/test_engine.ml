(* Adapter-engine timing tests: each config knob (setup, gaps, teardown,
   DMA programming cost) must shift cycle counts by exactly the predicted
   amount, and bursts must move words back-to-back. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spec_plain =
  lazy
    (Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
       "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n\
        void f(int*:6 xs);")

(* run one 6-word write call through a custom engine config; returns cycles *)
let cycles_with cfg =
  let spec = Lazy.force spec_plain in
  let module B = struct
    include Plb

    let engine_config = cfg
    let connect = Bus.connect_with_engine cfg Plb.caps `Null
  end in
  let host =
    Host.create spec ~behaviors:(fun _ -> Stub_model.null_behavior) ~bus:(module B)
  in
  snd (Host.call host ~func:"f" ~args:[ ("xs", List.init 6 Int64.of_int) ])

let base_cfg =
  {
    Adapter_engine.name = "test";
    setup_cycles = 1;
    write_word_gap = 0;
    read_word_gap = 0;
    teardown_cycles = 0;
    strictly_sync = false;
    dma_setup_transactions = 0;
  }

let knob_tests =
  [
    t "setup cycles cost one extra cycle per transaction" (fun () ->
        let a = cycles_with base_cfg in
        let b = cycles_with { base_cfg with Adapter_engine.setup_cycles = 2 } in
        (* 6 single-word writes + 1 ack read = 7 transactions *)
        check_int "7 transactions" (a + 7) b);
    t "teardown cycles cost one extra cycle per transaction" (fun () ->
        let a = cycles_with base_cfg in
        let b = cycles_with { base_cfg with Adapter_engine.teardown_cycles = 1 } in
        check_int "7 transactions" (a + 7) b);
    t "write word gaps don't affect single-word transactions" (fun () ->
        (* non-burst drivers issue one word per transaction: the intra-burst
           gap never applies *)
        let a = cycles_with base_cfg in
        let b = cycles_with { base_cfg with Adapter_engine.write_word_gap = 3 } in
        check_int "same" a b);
    t "status read returns the CALC_DONE vector" (fun () ->
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n\
             int f(int x);\nint g(int x);"
        in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:1 (fun _ -> [ 0L ]))
        in
        let port =
          Plb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec (Peripheral.sis periph)
        in
        let cpu = Cpu.make port in
        Kernel.add kernel (Cpu.component cpu);
        (* start f (id 1), let it finish, then status-read *)
        let _ =
          Cpu.run_program kernel cpu
            [ Op.Write_single (1, Bits.of_int ~width:32 0) ]
        in
        Kernel.run kernel 6;
        let words, _ = Cpu.run_program kernel cpu [ Op.Read_single 0 ] in
        check_int "bit 0 set" 1 (Bits.to_int (List.hd words)));
    t "bursts move words back-to-back (consecutive IO_DONE)" (fun () ->
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type fcb\n%bus_width 32\n%burst_support true\n\
             void f(int*:4 xs);"
        in
        let host =
          Host.create spec ~behaviors:(fun _ -> Stub_model.null_behavior)
        in
        let sis = Host.sis host in
        let wave = Wave.create (Host.kernel host) [ sis.Sis_if.io_done ] in
        let _ =
          Host.call host ~func:"f" ~args:[ ("xs", [ 1L; 2L; 3L; 4L ]) ]
        in
        (* look for a run of 4 consecutive IO_DONE-high cycles (the quad) *)
        let history =
          List.map Bits.to_bool (Wave.history wave sis.Sis_if.io_done)
        in
        let rec longest best cur = function
          | [] -> max best cur
          | true :: rest -> longest best (cur + 1) rest
          | false :: rest -> longest (max best cur) 0 rest
        in
        check_bool "a 4-run exists" true (longest 0 0 history >= 4));
    t "DMA programming cost follows the transaction formula" (fun () ->
        let dma_spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n\
             %dma_support true\nvoid f(int*:6^ xs);"
        in
        let run cfg =
          let module B = struct
            include Plb

            let connect = Bus.connect_with_engine cfg Plb.caps `Null
          end in
          let host =
            Host.create dma_spec ~bus:(module B)
              ~behaviors:(fun _ -> Stub_model.null_behavior)
          in
          snd (Host.call host ~func:"f" ~args:[ ("xs", List.init 6 Int64.of_int) ])
        in
        let two = run { base_cfg with Adapter_engine.dma_setup_transactions = 2 } in
        let four = run { base_cfg with Adapter_engine.dma_setup_transactions = 4 } in
        (* each extra programming transaction costs setup+teardown+3 = 4 here *)
        check_int "2 extra transactions" (two + 8) four);
    t "strictly synchronous engines never stall on reads" (fun () ->
        (* even with a long calc, a sync read completes in fixed time (and
           would return garbage) — the engine must not wait for
           DATA_OUT_VALID *)
        let spec =
          Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
            "%device_name d\n%bus_type apb\n%bus_width 32\n%base_address 0x0\n\
             int f(int x);"
        in
        let kernel = Kernel.create () in
        let periph =
          Peripheral.build kernel spec ~behaviors:(fun _ ->
              Stub_model.behavior ~cycles:500 (fun _ -> [ 1L ]))
        in
        let port =
          Apb.connect ~cover:None ~cdc:Bus.default_cdc ~monitor:true
            kernel spec (Peripheral.sis periph)
        in
        let cpu = Cpu.make ~wait_mode:`Null port in
        Kernel.add kernel (Cpu.component cpu);
        let _, cycles =
          Cpu.run_program kernel cpu
            [ Op.Write_single (1, Bits.of_int ~width:32 1); Op.Read_single 1 ]
        in
        check_bool "fixed time, no 500-cycle stall" true (cycles < 30));
  ]

let tests = [ ("engine.knobs", knob_tests) ]
