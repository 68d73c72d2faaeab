(* CLI integration tests: drive the built splice binary end to end through
   every verb, on the shipped example specifications. *)

let exe = "../../bin/splice_cli.exe"

let run args =
  let out = Filename.temp_file "splicecli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let ic = open_in out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (rc, s)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else go (i + 1)
  in
  nl = 0 || go 0

let check name cond = if not (cond ()) then failwith ("FAILED: " ^ name)

let spec name = Filename.concat "../../examples/specs" name

let () =
  (* check *)
  let rc, out = run ("check " ^ spec "hw_timer.splice") in
  check "check succeeds" (fun () -> rc = 0 && contains out "specification OK");
  let rc, out = run ("check " ^ spec "nav_points.splice") in
  check "struct spec checks" (fun () -> rc = 0 && contains out "centroid");
  (* an invalid spec fails with a diagnostic *)
  let bad = Filename.temp_file "bad" ".splice" in
  let oc = open_out bad in
  output_string oc "%device_name d\n%bus_type nosuchbus\n%bus_width 32\nvoid f(int x);\n";
  close_out oc;
  let rc, out = run ("check " ^ bad) in
  Sys.remove bad;
  check "bad spec rejected" (fun () -> rc = 1 && contains out "unknown bus");
  (* plan *)
  let rc, out = run ("plan " ^ spec "interp.splice") in
  check "plan lists transfers" (fun () -> rc = 0 && contains out "plan for interp");
  (* buses *)
  let rc, out = run "buses" in
  check "buses lists all seven" (fun () ->
      rc = 0 && contains out "plb" && contains out "avalon" && contains out "wishbone");
  (* markers *)
  let rc, out = run "markers plb" in
  check "markers lists the standard set" (fun () ->
      rc = 0 && contains out "%COMP_NAME%" && contains out "%DMA_LOGIC%");
  (* lint *)
  let rc, out = run ("lint " ^ spec "fir.splice") in
  check "lint clean" (fun () -> rc = 0 && contains out "clean");
  (* files lint has no linter for are listed as such, never as clean *)
  let rc, out = run ("lint " ^ spec "packet_cksum.splice") in
  let says name verdict = contains out (Printf.sprintf "%-28s %s\n" name verdict) in
  check "lint marks unlinted files" (fun () ->
      rc = 0
      && List.for_all
           (fun f -> says f "not linted")
           [ "user_cksum.v"; "func_fletcher32.v"; "func_parity.v"; "func_prime_tables.v"; "Makefile" ]
      && List.for_all (fun f -> says f "clean")
           [ "plb_interface.vhd"; "cksum_driver.c"; "cksum_driver.h" ]);
  (* gen, with overwrite protection and --linux *)
  let dir = Filename.temp_file "splicegen" "" in
  Sys.remove dir;
  let rc, out = run (Printf.sprintf "gen %s -o %s" (spec "hw_timer.splice") dir) in
  check "gen writes the Fig 8.3/8.7 file set" (fun () ->
      rc = 0 && contains out "generated 14 files");
  check "device subdirectory created (§3.2.3)" (fun () ->
      Sys.is_directory (Filename.concat dir "hw_timer"));
  let rc, out = run (Printf.sprintf "gen %s -o %s" (spec "hw_timer.splice") dir) in
  check "refuses to overwrite without --force" (fun () ->
      rc = 1 && contains out "already exists");
  let rc, _ = run (Printf.sprintf "gen %s -o %s --force --linux" (spec "hw_timer.splice") dir) in
  check "--force --linux regenerates with the kernel module" (fun () ->
      rc = 0 && Sys.file_exists (Filename.concat dir "hw_timer/hw_timer_linux.c"));
  (* a bus without a memory map has no Linux driver: a diagnostic, exit 1,
     and no files written *)
  let rc, out = run (Printf.sprintf "gen %s -o %s --linux" (spec "interp.splice") dir) in
  check "--linux on a co-processor bus is refused" (fun () ->
      rc = 1
      && contains out "error: Linux driver generation needs a memory-mapped bus"
      && not (Sys.file_exists (Filename.concat dir "interp")));
  (* eval with observability exports *)
  let stats_file = Filename.temp_file "splicestats" ".txt" in
  let trace_file = Filename.temp_file "splicetrace" ".json" in
  let rc, out =
    run
      (Printf.sprintf "eval --stats %s --trace %s"
         (Filename.quote stats_file) (Filename.quote trace_file))
  in
  check "eval with exports succeeds" (fun () ->
      rc = 0 && contains out "wrote stats report" && contains out "wrote Chrome trace");
  let slurp p =
    let ic = open_in p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let stats = slurp stats_file in
  check "stats report has the per-layer budget table" (fun () ->
      contains stats "Cycle budget by layer"
      && contains stats "breakdown/bus"
      && contains stats "arbiter/grants"
      && contains stats "sis/transactions");
  let trace = slurp trace_file in
  check "trace file is a Chrome trace-event array" (fun () ->
      String.length trace > 2
      && trace.[0] = '['
      && contains trace "\"ph\":\"X\""
      && contains trace "\"ts\":");
  Sys.remove stats_file;
  Sys.remove trace_file;
  (* fuzz: a short fixed-seed differential sweep must be clean, and the
     reported seed must make the run reproducible *)
  let rc, out = run "fuzz --seed 7 --count 3 -q" in
  check "fuzz clean on a fixed seed" (fun () ->
      rc = 0 && contains out "seed=7" && contains out "no protocol");
  let rc, out = run "fuzz --seed 7 --count 2 --bus apb --sched event" in
  check "fuzz restricted to one bus and scheduler" (fun () ->
      rc = 0 && contains out "buses=apb" && contains out "scheds=event");
  let rc, out = run "fuzz --bus nosuchbus" in
  check "fuzz rejects unknown buses" (fun () ->
      rc = 2 && contains out "unknown bus");
  (* an empty sweep is a usage error, not a pass: non-zero exit, one line *)
  List.iter
    (fun arg ->
      let rc, out = run ("fuzz --seed 7 " ^ arg) in
      check ("fuzz rejects " ^ arg) (fun () ->
          rc <> 0 && contains out "bad count"
          && not (String.contains (String.trim out) '\n')))
    [ "--count 0"; "--count=-3" ];
  (* coverage: fuzz --cover writes a map the cover verb can report and gate *)
  let cov = Filename.temp_file "splicecov" ".json" in
  let rc, out =
    run (Printf.sprintf "fuzz --seed 7 --count 3 --cover %s" (Filename.quote cov))
  in
  check "fuzz --cover reports totals and the closure trajectory" (fun () ->
      rc = 0 && contains out "coverage:" && contains out "protocol phases:"
      && contains out "coverage trajectory");
  let rc, out = run ("cover " ^ Filename.quote cov) in
  check "cover renders the per-group hit/hole report" (fun () ->
      rc = 0 && contains out "functional coverage:"
      && contains out "group bus/plb" && contains out "holes:");
  let rc, out = run ("cover " ^ Filename.quote cov ^ " --openmetrics") in
  check "cover exposition is EOF-terminated" (fun () ->
      rc = 0 && contains out "cover_bins_hit" && contains out "# EOF");
  let rc, out = run ("cover " ^ Filename.quote cov ^ " --fail-under 12") in
  check "cover --fail-under passes above the floor" (fun () ->
      rc = 0 && contains out "meets the");
  let rc, out = run ("cover " ^ Filename.quote cov ^ " --fail-under 99") in
  check "cover --fail-under gates below the floor" (fun () ->
      rc = 1 && contains out "error:" && contains out "below");
  Sys.remove cov;
  (* missing or unparsable inputs: non-zero exit, one-line diagnostic *)
  let rc, out = run "cover /nonexistent/map.json" in
  check "cover missing file diagnostic" (fun () ->
      rc = 1 && contains out "error:" && contains out "No such file");
  let rc, out = run "trace /nonexistent/dump.json" in
  check "trace missing file diagnostic" (fun () ->
      rc = 1 && contains out "error:" && contains out "No such file");
  let bogus = Filename.temp_file "splicebogus" ".json" in
  let oc = open_out bogus in
  output_string oc "not json at all\n";
  close_out oc;
  let rc, out = run ("cover " ^ Filename.quote bogus) in
  check "cover unparsable file diagnostic names the file" (fun () ->
      rc = 1 && contains out "error:" && contains out (Filename.basename bogus));
  let rc, out = run ("trace " ^ Filename.quote bogus) in
  check "trace unparsable file diagnostic" (fun () ->
      rc = 1 && contains out "error:");
  Sys.remove bogus;
  (* clean up *)
  let dev = Filename.concat dir "hw_timer" in
  Array.iter (fun f -> Sys.remove (Filename.concat dev f)) (Sys.readdir dev);
  Sys.rmdir dev;
  Sys.rmdir dir;
  print_endline "CLI integration tests passed"
