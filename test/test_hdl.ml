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

(* Printer edge cases, with the text each printer gives for them: names
   wider than the padded declaration and port-map columns (padding never
   truncates), an empty case arm, both sensitivity-list forms, with and
   without a generic map, integer arithmetic with and without parentheses,
   and every shape of comparison. *)
let edge_design : Hdl_ast.design =
  let open Hdl_ast in
  {
    header = [ "printer edge cases" ];
    name = "edge";
    generics =
      [
        { gen_name = "C_A_GENERIC_NAME_PAST_24_COLUMNS"; gen_default = 7 };
        { gen_name = "C_B"; gen_default = 0 };
      ];
    ports =
      [
        clk_port;
        { port_name = "A_PORT_NAME_PAST_TWENTY_FOUR"; dir = In; width = 4 };
        { port_name = "Q"; dir = Out; width = 4 };
      ];
    constants =
      [
        { const_name = "A_CONSTANT_PAST_TWENTY"; const_width = Some 3; const_value = 5 };
        { const_name = "N_WORDS_CONSTANT_PAST_20"; const_width = None; const_value = 12 };
      ];
    signals =
      [
        { sig_name = "a_signal_name_past_22_cols"; sig_width = 1 };
        { sig_name = "cnt"; sig_width = 4 };
      ];
    body =
      [
        Instance
          {
            inst_name = "u_plain";
            comp_name = "leaf";
            generic_map = [];
            port_map =
              [
                ("A_PORT_MAP_NAME_PAST_20", Ref "cnt");
                ("Q", Concat [ Ref "a_signal_name_past_22_cols"; Slice ("cnt", 2, 0) ]);
              ];
          };
        Instance
          {
            inst_name = "u_gen";
            comp_name = "leaf";
            generic_map = [ ("C_A", 1); ("C_B", 2) ];
            port_map = [ ("CLK", Ref "CLK") ];
          };
        Proc
          {
            proc_name = "comb";
            clocked = false;
            sensitivity = [];
            body =
              [
                Case
                  ( Ref "cnt",
                    [
                      (Choice_ref "A_CONSTANT_PAST_TWENTY", []);
                      (Choice_others, [ Assign (Ref "Q", Ref "cnt") ]);
                    ] );
              ];
          };
        Proc
          {
            proc_name = "listed";
            clocked = false;
            sensitivity = [ "cnt"; "A_PORT_NAME_PAST_TWENTY_FOUR" ];
            body =
              [
                If
                  ( [
                      ( Binop (Eq, Ref "cnt", Int_lit 3),
                        [ Assign (Ref "Q", Binop (Add, Ref "cnt", Int_lit 1)) ] );
                      ( Binop (Neq, Ref "cnt", All_zeros),
                        [ Assign (Ref "Q", Binop (Sub, Ref "cnt", Binop (Sub, Int_ref "C_B", Int_lit 1))) ] );
                    ],
                    [ Comment "nothing to count"; Assign (Ref "Q", Lit (9, 4)) ] );
              ];
          };
      ];
  }

let edge_vhdl = {|-- printer edge cases
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity edge is
  generic (
    C_A_GENERIC_NAME_PAST_24_COLUMNS : integer := 7;
    C_B                      : integer := 0
  );
  port (
    CLK                      : in  std_logic;
    A_PORT_NAME_PAST_TWENTY_FOUR : in  std_logic_vector(3 downto 0);
    Q                        : out std_logic_vector(3 downto 0)
  );
end entity edge;

architecture rtl of edge is
  constant A_CONSTANT_PAST_TWENTY : std_logic_vector(2 downto 0) := "101";
  constant N_WORDS_CONSTANT_PAST_20 : integer := 12;
  signal a_signal_name_past_22_cols : std_logic := '0';
  signal cnt                    : std_logic_vector(3 downto 0) := (others => '0');
begin
  u_plain : entity work.leaf
    port map (
      A_PORT_MAP_NAME_PAST_20 => cnt,
      Q                    => a_signal_name_past_22_cols & cnt(2 downto 0)
    );
  u_gen : entity work.leaf
    generic map (C_A => 1, C_B => 2)
    port map (
      CLK                  => CLK
    );
  comb : process (all)
  begin
    case cnt is
      when A_CONSTANT_PAST_TWENTY =>
        null;
      when others =>
        Q <= cnt;
    end case;
  end process comb;
  listed : process (cnt, A_PORT_NAME_PAST_TWENTY_FOUR)
  begin
    if (unsigned(cnt) = 3) then
      Q <= std_logic_vector(unsigned(cnt) + 1);
    elsif (cnt /= std_logic_vector(to_unsigned(0, cnt'length))) then
      Q <= std_logic_vector(unsigned(cnt) - (C_B - 1));
    else
      -- nothing to count
      Q <= "1001";
    end if;
  end process listed;
end architecture rtl;
|}

let edge_verilog = {|// printer edge cases
module edge #(
  parameter C_A_GENERIC_NAME_PAST_24_COLUMNS = 7,
  parameter C_B = 0
) (
  input CLK,
  input [3:0] A_PORT_NAME_PAST_TWENTY_FOUR,
  output reg [3:0] Q
);

  localparam [2:0] A_CONSTANT_PAST_TWENTY = 3'd5;
  localparam N_WORDS_CONSTANT_PAST_20 = 12;
  wire a_signal_name_past_22_cols;
  wire [3:0] cnt;

  leaf u_plain (
    .A_PORT_MAP_NAME_PAST_20(cnt),
    .Q({a_signal_name_past_22_cols, cnt[2:0]})
  );
  leaf #(.C_A(1), .C_B(2)) u_gen (
    .CLK(CLK)
  );
  always @(*) begin : comb
    case (cnt)
      A_CONSTANT_PAST_TWENTY: begin
      end
      default: begin
        Q <= cnt;
      end
    endcase
  end
  always @(cnt or A_PORT_NAME_PAST_TWENTY_FOUR) begin : listed
    if ((cnt == 3)) begin
      Q <= (cnt + 1);
    end else if ((cnt != 0)) begin
      Q <= (cnt - (C_B - 1));
    end else begin
      // nothing to count
      Q <= 4'd9;
    end
  end

endmodule
|}

let edge_tests =
  let open Hdl_ast in
  [
    t "VHDL edge cases" (fun () -> check_str "edge.vhd" edge_vhdl (Vhdl.to_string edge_design));
    t "Verilog edge cases" (fun () ->
        check_str "edge.v" edge_verilog (Verilog.to_string edge_design));
    t "integer arithmetic parenthesises only lower-precedence operands" (fun () ->
        List.iter
          (fun (e, vhdl, verilog) ->
            check_str "vhdl" vhdl (Vhdl.expr e);
            check_str "verilog" verilog (Verilog.expr e))
          [
            (Binop (Sub, Binop (Add, Int_ref "a", Int_lit 1), Int_ref "b"), "a + 1 - b", "((a + 1) - b)");
            (Binop (Sub, Int_ref "a", Binop (Add, Int_ref "b", Int_lit 1)), "a - (b + 1)", "(a - (b + 1))");
            (Binop (Mul, Binop (Add, Int_ref "a", Int_lit 1), Int_lit 4), "(a + 1) * 4", "((a + 1) * 4)");
            (Binop (Mul, Binop (Mul, Int_ref "a", Int_lit 2), Int_lit 4), "a * 2 * 4", "((a * 2) * 4)");
            (Binop (Div, Int_ref "a", Binop (Mul, Int_ref "b", Int_lit 2)), "a / (b * 2)", "(a / (b * 2))");
            (Binop (Add, Ref "v", Binop (Sub, Int_ref "n", Int_lit 1)), "std_logic_vector(unsigned(v) + (n - 1))", "(v + (n - 1))");
            (Concat [ Ref "a"; Lit (1, 1); Lit (2, 3) ], "a & '1' & \"010\"", "{a, 1'd1, 3'd2}");
          ]);
    t "conditions against literals, zeros and integer expressions" (fun () ->
        List.iter
          (fun (c, text) -> check_str text text (Vhdl.cond c))
          [
            (Binop (Eq, Ref "id", Int_lit 0), "unsigned(id) = 0");
            (Binop (Neq, Ref "id", Int_lit 2), "unsigned(id) /= 2");
            (Binop (Eq, Ref "id", All_zeros), "id = std_logic_vector(to_unsigned(0, id'length))");
            (Binop (Neq, Ref "id", All_zeros), "id /= std_logic_vector(to_unsigned(0, id'length))");
            (Binop (Eq, Ref "id", Binop (Add, Int_ref "C_ID", Int_lit 1)), "unsigned(id) = to_unsigned(C_ID + 1, id'length)");
            (Binop (Neq, Int_ref "C_ID", Ref "id"), "unsigned(id) /= to_unsigned(C_ID, id'length)");
            (Binop (Eq, Binop (Mul, Int_ref "a", Int_lit 2), Int_lit 3), "(a * 2) = 3");
            (Not (Ref "go"), "not (go = '1')");
            (To_int (Ref "c"), "to_integer(unsigned(c)) /= 0");
            (Slice ("d", 3, 0), "unsigned(d(3 downto 0)) /= 0");
          ]);
  ]

let tests =
  [
    ("hdl.template", template_tests);
    ("hdl.ast", ast_tests);
    ("hdl.vhdl", vhdl_tests);
    ("hdl.verilog", verilog_tests);
    ("hdl.edge", edge_tests);
  ]
