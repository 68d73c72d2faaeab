(* HDL layer tests: template engine (§5.1/§7.1.2), AST validation, and the
   VHDL / Verilog printers. *)

open Splice

let t name f = Alcotest.test_case name `Quick f
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let contains = Astring_contains.contains

let template_tests =
  [
    t "markers_in finds distinct markers in order" (fun () ->
        Alcotest.(check (list string))
          "markers" [ "A"; "B_2" ]
          (Template.markers_in "x %A% y %B_2% z %A%"));
    t "expand substitutes" (fun () ->
        check_str "out" "hello world"
          (Template.expand ~markers:[ ("WHO", "world") ] "hello %WHO%"));
    t "later bindings shadow earlier ones" (fun () ->
        check_str "out" "b"
          (Template.expand ~markers:[ ("X", "a"); ("X", "b") ] "%X%"));
    t "unknown marker raises" (fun () ->
        match Template.expand ~markers:[] "%NOPE%" with
        | _ -> Alcotest.fail "expected Unknown_marker"
        | exception Template.Unknown_marker { marker; _ } ->
            check_str "name" "NOPE" marker);
    t "expand_partial leaves unknown markers" (fun () ->
        check_str "out" "a %B% c"
          (Template.expand_partial ~markers:[ ("A", "a"); ("C", "c") ] "%A% %B% %C%"));
    t "lone percent signs pass through" (fun () ->
        check_str "out" "100% of %x lower%"
          (Template.expand ~markers:[] "100% of %x lower%"));
    t "replacement containing percent is not rescanned" (fun () ->
        check_str "out" "%KEEP%"
          (Template.expand ~markers:[ ("A", "%KEEP%") ] "%A%"));
  ]

let tiny_design : Hdl_ast.design =
  let open Hdl_ast in
  {
    header = [ "tiny test design" ];
    name = "tiny";
    generics = [ { gen_name = "C_ID"; gen_default = 3 } ];
    ports =
      [
        clk_port;
        rst_port;
        { port_name = "D"; dir = In; width = 8 };
        { port_name = "Q"; dir = Out; width = 8 };
        { port_name = "VALID"; dir = Out; width = 1 };
      ];
    constants =
      [
        { const_name = "MAGIC"; const_width = Some 8; const_value = 0xA5 };
        { const_name = "IDLE"; const_width = Some 2; const_value = 0 };
      ];
    signals = [ { sig_name = "state"; sig_width = 2 } ];
    body =
      [
        Ccomment "a register with an enable";
        Proc
          {
            proc_name = "reg";
            clocked = true;
            sensitivity = [];
            body =
              [
                If
                  ( [ (Ref "RST", [ Assign (Ref "Q", All_zeros) ]) ],
                    [
                      Case
                        ( Ref "state",
                          [
                            (Choice_ref "IDLE", [ Assign (Ref "Q", Ref "D") ]);
                            (Choice_others, []);
                          ] );
                    ] );
              ];
          };
        Cassign_cond
          ( Ref "VALID",
            [ (Binop (Eq, Ref "Q", Ref "MAGIC"), Bool_lit true) ],
            Bool_lit false );
      ];
  }

let ast_tests =
  [
    t "validate accepts a well-formed design" (fun () ->
        check_bool "ok" true (Hdl_ast.validate tiny_design = Ok ()));
    t "validate rejects duplicate ports" (fun () ->
        let bad =
          { tiny_design with Hdl_ast.ports = [ Hdl_ast.clk_port; Hdl_ast.clk_port ] }
        in
        match Hdl_ast.validate bad with
        | Error (e :: _) -> check_bool "mentions" true (contains e "duplicate port")
        | _ -> Alcotest.fail "expected error");
    t "validate rejects zero-width signals" (fun () ->
        let bad =
          {
            tiny_design with
            Hdl_ast.signals = [ { Hdl_ast.sig_name = "z"; sig_width = 0 } ];
          }
        in
        check_bool "err" true (Hdl_ast.validate bad <> Ok ()));
  ]

let vhdl_tests =
  [
    t "entity and architecture are emitted" (fun () ->
        let s = Vhdl.to_string tiny_design in
        check_bool "entity" true (contains s "entity tiny is");
        check_bool "arch" true (contains s "architecture rtl of tiny is");
        check_bool "generic" true (contains s "C_ID");
        check_bool "libraries" true (contains s "use ieee.numeric_std.all"));
    t "widths map to std_logic / std_logic_vector" (fun () ->
        let s = Vhdl.to_string tiny_design in
        check_bool "vector" true (contains s "D                        : in  std_logic_vector(7 downto 0)");
        check_bool "scalar" true (contains s "VALID                    : out std_logic"));
    t "clocked process wraps in rising_edge" (fun () ->
        check_bool "edge" true (contains (Vhdl.to_string tiny_design) "rising_edge(CLK)"));
    t "case renders with others" (fun () ->
        let s = Vhdl.to_string tiny_design in
        check_bool "case" true (contains s "case state is");
        check_bool "others" true (contains s "when others"));
    t "conditional assignment chains when/else" (fun () ->
        check_bool "when" true (contains (Vhdl.to_string tiny_design) "'1' when (Q = MAGIC) else '0'"));
    t "expression rendering" (fun () ->
        let open Hdl_ast in
        check_str "lit" "\"0101\"" (Vhdl.expr (Lit (5, 4)));
        check_str "bit" "'1'" (Vhdl.expr (Lit (1, 1)));
        check_str "add" "std_logic_vector(unsigned(a) + unsigned(b))"
          (Vhdl.expr (Binop (Add, Ref "a", Ref "b")));
        check_str "increment" "std_logic_vector(unsigned(c) + 1)"
          (Vhdl.expr (Binop (Add, Ref "c", Int_lit 1)));
        check_str "slice" "d(31 downto 0)" (Vhdl.expr (Slice ("d", 31, 0)));
        check_str "concat" "a & b" (Vhdl.expr (Concat [ Ref "a"; Ref "b" ]));
        check_bool "a comparison is no value" true
          (match Vhdl.expr (Binop (Eq, Ref "a", Ref "b")) with
          | _ -> false
          | exception Invalid_argument _ -> true));
    t "condition rendering" (fun () ->
        let open Hdl_ast in
        check_str "1-bit ref" "go = '1'" (Vhdl.cond (Ref "go"));
        check_str "eq" "a = b" (Vhdl.cond (Binop (Eq, Ref "a", Ref "b")));
        check_str "and" "(a = '1' and b = '1')"
          (Vhdl.cond (Binop (And, Ref "a", Ref "b")));
        check_str "integer arithmetic" "to_integer(unsigned(c)) = ((to_integer(unsigned(n)) + 3) / 4 - 1)"
          (Vhdl.cond
             (Binop
                ( Eq,
                  To_int (Ref "c"),
                  Binop
                    ( Sub,
                      Binop (Div, Binop (Add, To_int (Ref "n"), Int_lit 3), Int_lit 4),
                      Int_lit 1 ) )));
        check_str "vector against a literal" "unsigned(id) = 0"
          (Vhdl.cond (Binop (Eq, Ref "id", Int_lit 0)));
        check_str "vector against a generic" "unsigned(id) = to_unsigned(C_ID, id'length)"
          (Vhdl.cond (Binop (Eq, Ref "id", Int_ref "C_ID")));
        check_str "vector against zeros"
          "(a and (not b)) /= std_logic_vector(to_unsigned(0, a'length))"
          (Vhdl.cond (Binop (Neq, Binop (And, Ref "a", Not (Ref "b")), All_zeros))));
  ]

let verilog_tests =
  [
    t "module structure" (fun () ->
        let s = Verilog.to_string tiny_design in
        check_bool "module" true (contains s "module tiny");
        check_bool "endmodule" true (contains s "endmodule");
        check_bool "parameter" true (contains s "parameter C_ID = 3"));
    t "process-driven ports become output reg" (fun () ->
        check_bool "reg" true (contains (Verilog.to_string tiny_design) "output reg [7:0] Q"));
    t "clocked process becomes always @(posedge CLK)" (fun () ->
        check_bool "always" true
          (contains (Verilog.to_string tiny_design) "always @(posedge CLK)"));
    t "case becomes case/default/endcase" (fun () ->
        let s = Verilog.to_string tiny_design in
        check_bool "case" true (contains s "case (state)");
        check_bool "default" true (contains s "default:");
        check_bool "endcase" true (contains s "endcase"));
    t "conditional assign becomes ternary" (fun () ->
        check_bool "ternary" true
          (contains (Verilog.to_string tiny_design) "assign VALID = ((Q == MAGIC)) ? 1'b1 : 1'b0"));
    t "expression rendering" (fun () ->
        let open Hdl_ast in
        check_str "lit" "4'd5" (Verilog.expr (Lit (5, 4)));
        check_str "concat" "{a, b}" (Verilog.expr (Concat [ Ref "a"; Ref "b" ]));
        check_str "eq" "(a == b)" (Verilog.expr (Binop (Eq, Ref "a", Ref "b")));
        check_str "integers need no conversion" "(c == (n - 1))"
          (Verilog.expr (Binop (Eq, To_int (Ref "c"), Binop (Sub, To_int (Ref "n"), Int_lit 1))));
        check_str "generic" "(id == C_ID)" (Verilog.expr (Binop (Eq, Ref "id", Int_ref "C_ID")));
        check_str "slice" "d[31:0]" (Verilog.expr (Slice ("d", 31, 0)));
        check_str "zeros are an unsized 0" "0" (Verilog.expr All_zeros));
    t "instances name the design directly" (fun () ->
        let open Hdl_ast in
        let d =
          {
            tiny_design with
            body =
              [
                Instance
                  {
                    inst_name = "u0";
                    comp_name = "sub";
                    generic_map = [];
                    port_map = [ ("CLK", Ref "CLK") ];
                  };
              ];
          }
        in
        let s = Verilog.to_string d in
        check_bool "module instance" true (contains s "sub u0");
        check_bool "no vhdl syntax" false (contains s "entity work.");
        check_bool "entity instance" true
          (contains (Vhdl.to_string d) "u0 : entity work.sub"));
  ]

let tests =
  [
    ("hdl.template", template_tests);
    ("hdl.ast", ast_tests);
    ("hdl.vhdl", vhdl_tests);
    ("hdl.verilog", verilog_tests);
  ]
