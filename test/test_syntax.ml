(* Front-end tests: lexer, C-type registry, and the parser for every syntax
   form of Ch 3 (Figs 3.1-3.17). *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let toks src = List.map fst (Lexer.tokenize src)

let lexer_tests =
  [
    t "identifiers and symbols" (fun () ->
        check_int "count" 7 (List.length (toks "int*:5 x;")));
    t "eof always last" (fun () ->
        (match List.rev (toks "") with
        | Token.EOF :: _ -> ()
        | _ -> Alcotest.fail "no EOF"));
    t "line comments skipped" (fun () ->
        check_int "only eof" 1 (List.length (toks "// hello\n// world\n")));
    t "block comments skipped" (fun () ->
        check_int "x and eof" 2 (List.length (toks "/* multi\nline */ x")));
    t "unterminated block comment rejected" (fun () ->
        match toks "/* oops" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error e ->
            check_bool "msg" true
              (Astring_contains.contains e.Error.message "unterminated"));
    t "hex literal" (fun () ->
        match toks "0x8000401C" with
        | [ Token.HEX v; Token.EOF ] -> Alcotest.(check int64) "v" 0x8000401CL v
        | _ -> Alcotest.fail "expected hex");
    t "a number glued to letters is one malformed literal" (fun () ->
        List.iter
          (fun (src, want) ->
            match toks src with
            | _ -> Alcotest.failf "%s: expected a lexical error" src
            | exception Error.Splice_error e ->
                check_str src want (Error.to_string e))
          [
            ("x 12ab", "line 1, col 3: malformed number literal 12ab");
            ("\n  0x8000000G;", "line 2, col 3: malformed number literal 0x8000000G");
            ("0x1_f", "line 1, col 1: malformed number literal 0x1_f");
          ]);
    t "hex literal too wide" (fun () ->
        match toks "0x11112222333344445" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "decimal literal" (fun () ->
        match toks "42" with
        | [ Token.INT 42; Token.EOF ] -> ()
        | _ -> Alcotest.fail "expected 42");
    t "unexpected character reported with location" (fun () ->
        match Lexer.tokenize "int x;\n@" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error e ->
            check_int "line" 2 e.Error.loc.Loc.line);
    t "extension symbols" (fun () ->
        match toks "*:+^" with
        | [ Token.STAR; Token.COLON; Token.PLUS; Token.CARET; Token.EOF ] -> ()
        | _ -> Alcotest.fail "wrong tokens");
    t "braces and parens" (fun () ->
        match toks "(){}%" with
        | [ Token.LPAREN; Token.RPAREN; Token.LBRACE; Token.RBRACE; Token.PERCENT; Token.EOF ] -> ()
        | _ -> Alcotest.fail "wrong tokens");
  ]

let ctype_tests =
  [
    t "native widths (Fig 3.1 types)" (fun () ->
        let w ws = (Option.get (Ctype.resolve Ctype.base ws)).Ctype.width in
        check_int "char" 8 (w [ "char" ]);
        check_int "bool" 1 (w [ "bool" ]);
        check_int "short" 16 (w [ "short" ]);
        check_int "int" 32 (w [ "int" ]);
        check_int "float" 32 (w [ "float" ]);
        check_int "single" 32 (w [ "single" ]);
        check_int "double" 64 (w [ "double" ]);
        check_int "void" 0 (w [ "void" ]));
    t "multi-word combinations" (fun () ->
        let info ws = Option.get (Ctype.resolve Ctype.base ws) in
        check_int "long long" 64 (info [ "long"; "long" ]).Ctype.width;
        check_int "unsigned long long" 64
          (info [ "unsigned"; "long"; "long" ]).Ctype.width;
        check_bool "ull unsigned" false
          (info [ "unsigned"; "long"; "long" ]).Ctype.signed;
        check_bool "char signed" true (info [ "char" ]).Ctype.signed;
        check_bool "unsigned char" false (info [ "unsigned"; "char" ]).Ctype.signed);
    t "unknown type is None" (fun () ->
        check_bool "none" true (Ctype.resolve Ctype.base [ "quux" ] = None));
    t "user type registration (Fig 3.17)" (fun () ->
        let env = Ctype.add_user_type Ctype.base ~name:"uint64" ~width:64 ~signed:false in
        check_int "resolves" 64 (Option.get (Ctype.resolve env [ "uint64" ])).Ctype.width;
        check_int "one user type" 1 (List.length (Ctype.user_types env)));
    t "cannot redefine a native type" (fun () ->
        match Ctype.add_user_type Ctype.base ~name:"int" ~width:16 ~signed:true with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "user width bounds" (fun () ->
        match Ctype.add_user_type Ctype.base ~name:"big" ~width:128 ~signed:false with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
  ]

(* ------------------------------------------------------------------ *)

let decl src = Parser.parse_decl src
let roundtrip_decl d = Parser.parse_decl (Format.asprintf "%a" Ast.pp_decl d)

let parser_decl_tests =
  [
    t "baseline prototype (Fig 3.1)" (fun () ->
        let d = decl "long get_status();" in
        check_str "name" "get_status" d.Ast.d_name;
        check_int "no params" 0 (List.length d.Ast.d_params);
        check_bool "returns long" true (d.Ast.d_ret = Ast.Ret_value ([ "long" ], Ast.no_extensions)));
    t "void return" (fun () ->
        check_bool "void" true ((decl "void f(int x);").Ast.d_ret = Ast.Ret_void));
    t "multi-word types" (fun () ->
        let d = decl "unsigned long long f(unsigned long x);" in
        (match d.Ast.d_ret with
        | Ast.Ret_value (ws, _) ->
            Alcotest.(check (list string)) "ret" [ "unsigned"; "long"; "long" ] ws
        | _ -> Alcotest.fail "ret");
        let p = List.hd d.Ast.d_params in
        Alcotest.(check (list string)) "param" [ "unsigned"; "long" ] p.Ast.p_type);
    t "explicit pointer (Fig 3.2)" (fun () ->
        let d = decl "void some_function(int*:5 x);" in
        let p = List.hd d.Ast.d_params in
        check_bool "pointer" true p.Ast.p_ext.Ast.pointer;
        check_bool "count 5" true (p.Ast.p_ext.Ast.count = Some (Ast.Fixed 5)));
    t "implicit pointer (Fig 3.3)" (fun () ->
        let d = decl "void some_function(char x, int*:x y);" in
        let p = List.nth d.Ast.d_params 1 in
        check_bool "var ref" true (p.Ast.p_ext.Ast.count = Some (Ast.Var "x")));
    t "packed extension prose form (§3.1.3: char* x:8+)" (fun () ->
        let d = decl "void some_function(char* x:8+);" in
        let p = List.hd d.Ast.d_params in
        check_bool "packed" true p.Ast.p_ext.Ast.packed;
        check_bool "count" true (p.Ast.p_ext.Ast.count = Some (Ast.Fixed 8)));
    t "packed extension formal form (char*:8+ x)" (fun () ->
        let d = decl "void some_function(char*:8+ x);" in
        let p = List.hd d.Ast.d_params in
        check_bool "packed" true p.Ast.p_ext.Ast.packed;
        check_str "name" "x" p.Ast.p_name);
    t "dma extension (Fig 3.5)" (fun () ->
        let d = decl "void some_function(int*:8^ x);" in
        check_bool "dma" true (List.hd d.Ast.d_params).Ast.p_ext.Ast.dma);
    t "multiple instances (Fig 3.6)" (fun () ->
        let d = decl "void some_function(int x, int y):4;" in
        check_int "instances" 4 d.Ast.d_instances);
    t "nowait (Fig 3.7)" (fun () ->
        check_bool "nowait" true
          ((decl "nowait some_function(int x, int y);").Ast.d_ret = Ast.Ret_nowait));
    t "combined extensions (§3.1.8: char*:16^+ x)" (fun () ->
        let d = decl "void some_function(char*:16^+ x);" in
        let e = (List.hd d.Ast.d_params).Ast.p_ext in
        check_bool "pointer" true e.Ast.pointer;
        check_bool "packed" true e.Ast.packed;
        check_bool "dma" true e.Ast.dma;
        check_bool "count" true (e.Ast.count = Some (Ast.Fixed 16)));
    t "brace-delimited declarations (Fig 8.2)" (fun () ->
        let d = decl "void set_threshold{llong thold};" in
        check_str "name" "set_threshold" d.Ast.d_name;
        check_int "params" 1 (List.length d.Ast.d_params));
    t "f(void) means no parameters" (fun () ->
        check_int "none" 0 (List.length (decl "int f(void);").Ast.d_params));
    t "pointer return with count" (fun () ->
        match (decl "int*:4 f(int x);").Ast.d_ret with
        | Ast.Ret_value ([ "int" ], e) ->
            check_bool "ptr" true e.Ast.pointer;
            check_bool "count" true (e.Ast.count = Some (Ast.Fixed 4))
        | _ -> Alcotest.fail "ret");
    t "duplicate extension rejected" (fun () ->
        match decl "void f(int*:4:5 x);" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "duplicate packed rejected across positions" (fun () ->
        match decl "void f(char*:8+ x+);" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "missing semicolon rejected" (fun () ->
        match decl "void f(int x)" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "mismatched delimiters rejected" (fun () ->
        match decl "void f(int x};" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "zero instance count rejected" (fun () ->
        match decl "void f(int x):0;" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "nowait with extensions rejected" (fun () ->
        match decl "nowait* f(int x);" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "declaration pretty-print roundtrips" (fun () ->
        List.iter
          (fun src ->
            let d = decl src in
            check_bool src true (roundtrip_decl d = d))
          [
            "void f();";
            "long get_status();";
            "void g(int*:5 x, char y);";
            "void h(char x, int*:x y):3;";
            "nowait k(char*:16+^ x);";
            "unsigned long long wide(double d);";
          ]);
  ]

let dir src = Parser.parse_directive src

let parser_directive_tests =
  [
    t "bus type, both spellings (Fig 3.9)" (fun () ->
        check_bool "underscore" true (dir "%bus_type plb" = Ast.Bus_type "plb");
        check_bool "spaced" true (dir "%bus type plb" = Ast.Bus_type "plb"));
    t "bus width (Fig 3.10)" (fun () ->
        check_bool "32" true (dir "%bus_width 32" = Ast.Bus_width 32));
    t "base address (Fig 3.11)" (fun () ->
        check_bool "hex" true
          (dir "%base_address 0x80000000" = Ast.Base_address 0x80000000L));
    t "burst support (Fig 3.12)" (fun () ->
        check_bool "true" true (dir "%burst_support true" = Ast.Burst_support true);
        check_bool "false" true (dir "%burst support false" = Ast.Burst_support false));
    t "dma support (Fig 3.13)" (fun () ->
        check_bool "false" true (dir "%dma_support false" = Ast.Dma_support false));
    t "packing support (Fig 3.14)" (fun () ->
        check_bool "true" true (dir "%packing_support true" = Ast.Packing_support true));
    t "interrupt support (§10.2)" (fun () ->
        check_bool "true" true
          (dir "%interrupt_support true" = Ast.Interrupt_support true);
        check_bool "spaced" true
          (dir "%interrupt support false" = Ast.Interrupt_support false));
    t "device name + alias (Fig 3.15 / Fig 8.2)" (fun () ->
        check_bool "full" true (dir "%device_name timer_v1" = Ast.Device_name "timer_v1");
        check_bool "alias" true (dir "%name hw_timer" = Ast.Device_name "hw_timer"));
    t "target hdl + alias (Fig 3.16 / Fig 8.2)" (fun () ->
        check_bool "vhdl" true (dir "%target_hdl vhdl" = Ast.Target_hdl Ast.Vhdl);
        check_bool "verilog" true (dir "%target_hdl verilog" = Ast.Target_hdl Ast.Verilog);
        check_bool "alias" true (dir "%hdl_type vhdl" = Ast.Target_hdl Ast.Vhdl));
    t "unsupported hdl rejected" (fun () ->
        match dir "%target_hdl systemc" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "user type (Fig 3.17)" (fun () ->
        match dir "%user_type uint64, unsigned long long, 64" with
        | Ast.User_type { ut_name = "uint64"; ut_def; ut_width = 64 } ->
            Alcotest.(check (list string)) "def" [ "unsigned"; "long"; "long" ] ut_def
        | _ -> Alcotest.fail "user type");
    t "user type and struct errors carry their location" (fun () ->
        List.iter
          (fun (src, want) ->
            match Parser.parse_file src with
            | _ -> Alcotest.failf "%s: expected an error" src
            | exception Error.Splice_error e -> check_str src want (Error.to_string e))
          [
            ("%user_type u, , 8", "line 1, col 15: expected a type definition in %user_type");
            ( "int f();\n%user_struct s { int x; y; }",
              "line 2, col 25: a struct field needs a type and a name" );
            ( "%user_struct s { int x; 7 }",
              "line 1, col 25: expected a struct field or '}' but found integer 7" );
            ("int f();\n  %user_struct e { }", "line 2, col 3: %user_struct needs at least one field");
          ]);
    t "unknown directive rejected" (fun () ->
        match dir "%frobnicate yes" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "boolean directives validate their argument" (fun () ->
        match dir "%dma_support maybe" with
        | _ -> Alcotest.fail "expected error"
        | exception Error.Splice_error _ -> ());
    t "full file parses mixed items" (fun () ->
        let f =
          Parser.parse_file
            "%device_name d\n%bus_type plb\nvoid f(int x);\nint g();\n"
        in
        check_int "items" 4 (List.length f));
  ]

(* ------------------------------------------------------------------ *)
(* Front-end pins                                                      *)
(* ------------------------------------------------------------------ *)

(* One line per token: constructor and payload, then line and column. *)
let add_tokens buf src =
  List.iter
    (fun (tok, (l : Loc.t)) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d:%d\n" (Token.to_string tok) l.line l.col))
    (Lexer.tokenize src)

(* The gen_projects corpus: the example specs, then 32 seeded specs per
   bus drawn from the stream perfbench draws them from at seed 7919. *)
let gen_corpus () =
  let examples =
    List.map (fun (_, path) -> Test_specs_dir.read_file path) (Test_specs_dir.spec_files ())
  in
  if examples = [] then Alcotest.fail "examples/specs not found";
  let rng = Specgen.Rng.make (Diff.iteration_seed 7919 2) in
  examples
  @ List.concat_map
      (fun _ ->
        List.map (fun bus -> Specgen.render (Specgen.spec ~buses:[ bus ] rng)) (Registry.names ()))
      (List.init 32 Fun.id)

let spec_head = "%device_name d\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"

(* Inputs at the lexer's and the keyword tables' edges: each one's tokens
   or lexer error, then its validation result or issues. *)
let edge_inputs =
  [
    "%device_name d\r\n%bus_type plb\r\n%bus_width 32\r\n%base_address 0x80000000\r\nint f(int x);\r\n";
    "\tint\tf(\tint x);\t\n  \tvoid g();";
    spec_head ^ "int f(int x); // no newline at the end";
    spec_head ^ "/* a\n   b **/ int /* c */ f(/**/int x);\n/***/";
    "int f();\n  /* never closed\n";
    "int f();\n/*";
    "int x;\n  @";
    "int x; /";
    "%base_address 0x;";
    "%base_address 0x";
    "%base_address 0x11112222333344445";
    "%base_address 0xFFFFffffFFFFffff 0X1f 0x1g 007 0";
    "int f(int*:99999999999999999999 x);";
    "_a1 b_2 C3_d __ x9y 12ab 4611686018427387903";
    "%name d\n% bus type plb\n%bus width 32\n% base address 0x80000000\n\
     % hdl type verilog\n%burst support true\nvoid f(void);";
    "%name d\n%bus plb\n";
    "%frobnicate yes";
    "% user type u";
    spec_head
    ^ "unsigned long long f(unsigned long a, signed char b, long long c, unsigned short d,\n\
      \  unsigned char e, signed int g, unsigned int h, unsigned i, long j);";
    spec_head ^ "long unsigned f(int long x);";
    spec_head
    ^ "%user_type u64, unsigned long long, 64\n%user type s12, int, 12\n\
       u64 f(s12 x, u64*:2 y);";
    spec_head ^ "%user_type int, int, 16\n%user_type w, char, 65\nint f();";
    spec_head
    ^ "%user_struct pt { int x; unsigned short y; }\n\
       %user struct q { char c; long long d; }\npt f(pt*:3 ps, q z);";
    spec_head ^ "%user_struct pt { int x; pt y; }\nint f();";
    spec_head ^ "%user_struct e { }\nint f();";
    spec_head ^ "%user_type u, , 8\nint f();";
    spec_head ^ "%user_struct s { int x; y; }\nint f();";
    spec_head ^ "%user_struct s { int x; 7 }\nint f();";
  ]

let edge_result buf src =
  (match add_tokens buf src with
  | () -> ()
  | exception Error.Splice_error e ->
      Buffer.add_string buf ("lex error " ^ Error.to_string e ^ "\n"));
  (match Validate.of_string ~lookup_bus:Registry.lookup_caps src with
  | Ok spec ->
      Buffer.add_string buf (Format.asprintf "%a\n" Spec.pp spec);
      List.iter
        (fun (f : Spec.func) ->
          List.iter
            (fun (io : Spec.io) ->
              Buffer.add_string buf
                (Printf.sprintf "%s.%s %d %b\n" f.name io.io_name io.io_width io.signed))
            (f.inputs @ Option.to_list f.output))
        spec.Spec.funcs
  | Error issues ->
      List.iter
        (fun i -> Buffer.add_string buf (Format.asprintf "issue %a\n" Validate.pp_issue i))
        issues);
  Buffer.add_string buf "--\n"

let digest_of f =
  let buf = Buffer.create 4096 in
  f buf;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pin_tests =
  [
    t "every token of the gen_projects corpus is pinned" (fun () ->
        let corpus = gen_corpus () in
        check_int "specs" 261 (List.length corpus);
        check_str "md5" "17ab6428ca9255c4b81ed1b281da1b74" (digest_of (fun buf -> List.iter (add_tokens buf) corpus)));
    t "edge inputs keep their tokens, errors and locations" (fun () ->
        check_str "md5" "6d2088b8b92b2330e3ca1229e77a2d48" (digest_of (fun buf -> List.iter (edge_result buf) edge_inputs)));
  ]

let tests =
  [
    ("syntax.lexer", lexer_tests);
    ("syntax.ctype", ctype_tests);
    ("syntax.parser.decls", parser_decl_tests);
    ("syntax.parser.directives", parser_directive_tests);
    ("syntax.pins", pin_tests);
  ]
