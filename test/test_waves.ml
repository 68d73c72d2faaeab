(* Protocol timing-shape tests: capture the SIS lines with the ASCII
   waveform recorder and check the cycle-level shapes of the thesis's timing
   diagrams — back-to-back 1-cycle writes and the delayed read of Fig 4.3,
   and the FUNC_ID / IO_ENABLE relationships of §4.2.1. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spec_of decls =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
    ("%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n" ^ decls)

(* run one full driver call, recording the SIS lines every cycle *)
let trace ?(calc = 2) decls ~args =
  let spec = spec_of decls in
  let host =
    Host.create spec ~behaviors:(fun _ ->
        Stub_model.behavior ~cycles:calc (fun inputs ->
            match List.assoc_opt "x" inputs with
            | Some (v :: _) -> [ v ]
            | _ -> [ 0L ]))
  in
  let sis = Host.sis host in
  let wave = Wave.create (Host.kernel host) (Sis_if.signals sis) in
  let _ = Host.call host ~func:(List.hd spec.Spec.funcs).Spec.name ~args in
  (wave, sis)

let bools wave s = List.map Bits.to_bool (Wave.history wave s)

(* count cycles where [a] is high *)
let highs l = List.length (List.filter (fun b -> b) l)

let tests_list =
  [
    t "IO_DONE rises once per transferred word (Fig 4.3)" (fun () ->
        let wave, sis =
          trace "void f(int*:4 xs);" ~args:[ ("xs", [ 1L; 2L; 3L; 4L ]) ]
        in
        (* 4 data words + 1 pseudo-output ack read = 5 completions *)
        check_int "five completions" 5 (highs (bools wave sis.Sis_if.io_done)));
    t "every write completion coincides with DATA_IN_VALID (§4.2.1)" (fun () ->
        let wave, sis = trace "void f(int*:3 xs);" ~args:[ ("xs", [ 7L; 8L; 9L ]) ] in
        let div = bools wave sis.Sis_if.data_in_valid in
        let done_ = bools wave sis.Sis_if.io_done in
        let dov = bools wave sis.Sis_if.data_out_valid in
        List.iteri
          (fun i d ->
            if d && not (List.nth dov i) then
              check_bool
                (Printf.sprintf "cycle %d: write IO_DONE has DATA_IN_VALID" i)
                true (List.nth div i))
          done_);
    t "read response pairs DATA_OUT_VALID with IO_DONE (Fig 4.3)" (fun () ->
        let wave, sis = trace "int f(int x);" ~args:[ ("x", [ 42L ]) ] in
        let dov = bools wave sis.Sis_if.data_out_valid in
        let done_ = bools wave sis.Sis_if.io_done in
        check_int "one read response" 1 (highs dov);
        List.iteri
          (fun i v ->
            if v then check_bool "paired with IO_DONE" true (List.nth done_ i))
          dov);
    t "delayed read: the response lag tracks the calculation time" (fun () ->
        let lag calc =
          let wave, sis = trace ~calc "int f(int x);" ~args:[ ("x", [ 1L ]) ] in
          let enables = bools wave sis.Sis_if.io_enable in
          let dov = bools wave sis.Sis_if.data_out_valid in
          let index_of l =
            let rec go i = function
              | [] -> -1
              | true :: _ -> i
              | false :: rest -> go (i + 1) rest
            in
            go 0 l
          in
          (* the read strobe is the last IO_ENABLE pulse *)
          let last_enable = List.length enables - 1 - index_of (List.rev enables) in
          index_of dov - last_enable
        in
        (* lengthening the calculation by 16 cycles delays the read response
           by the same 16 cycles (Fig 4.3's "Delayed Read") *)
        check_int "lag difference" 16 (lag 30 - lag 14));
    t "FUNC_ID stays static while a read is outstanding (§4.2.1)" (fun () ->
        let wave, sis = trace ~calc:9 "int f(int x);" ~args:[ ("x", [ 5L ]) ] in
        let fid = List.map Bits.to_int (Wave.history wave sis.Sis_if.func_id) in
        let dov = bools wave sis.Sis_if.data_out_valid in
        let enables = bools wave sis.Sis_if.io_enable in
        let div = bools wave sis.Sis_if.data_in_valid in
        (* between the read strobe (enable && !valid) and the response, the
           FUNC_ID value must not change *)
        let n = List.length fid in
        let rec find_strobe i =
          if i >= n then None
          else if List.nth enables i && not (List.nth div i) then Some i
          else find_strobe (i + 1)
        in
        match find_strobe 0 with
        | None -> Alcotest.fail "no read strobe found"
        | Some s ->
            let rec check i =
              if i < n && not (List.nth dov (i - 1)) then begin
                check_int
                  (Printf.sprintf "FUNC_ID stable at cycle %d" i)
                  (List.nth fid s) (List.nth fid i);
                check (i + 1)
              end
            in
            check (s + 1));
    t "ASCII rendering shows the pulse train" (fun () ->
        let wave, _ = trace "void f(int x);" ~args:[ ("x", [ 1L ]) ] in
        let rendered = Wave.render wave in
        check_bool "has IO_DONE row" true
          (Astring_contains.contains rendered "IO_DONE");
        check_bool "has pulses" true (Astring_contains.contains rendered "#"));
  ]

let tests = [ ("sis.timing-diagrams", tests_list) ]
