(** The structural HDL AST Splice generates its arbiter and stubs from:
    entities with ports/generics, architectures with signals, constants,
    component instances, concurrent assignments and clocked/combinational
    processes. Rendered to VHDL by {!Vhdl} and — the §10.2 future-work item
    — to Verilog by {!Verilog}.

    The AST is closed: no node carries target-language text, and it holds
    only the constructors the generators build. Expressions have two sorts.
    Bit vectors (and single bits) are [Ref], [Slice], [Lit], [Bool_lit],
    [All_zeros], [Not], [Concat] and [And]. Integers are [Int_lit],
    [Int_ref] and [To_int]. An arithmetic [Binop] takes the sort of its left
    operand, so [Binop (Add, Ref c, Int_lit 1)] increments a vector and
    [Binop (Sub, To_int (Ref n), Int_lit 1)] is integer arithmetic. [Eq] and
    [Neq] compare two integers, two vectors, or a vector with an integer or
    with [All_zeros]; a comparison is a condition ([If] branch,
    [Cassign_cond] selector), never a value. *)

type binop =
  | And  (** bitwise; logical on 1-bit operands *)
  | Eq | Neq
  | Add | Sub | Mul | Div

type expr =
  | Ref of string  (** a port or signal *)
  | Slice of string * int * int  (** [sig(hi downto lo)] / [sig\[hi:lo\]] *)
  | Lit of int * int  (** value, width (bit-vector literal) *)
  | Int_lit of int
  | Int_ref of string  (** an integer generic / parameter *)
  | To_int of expr  (** a vector's unsigned value as an integer *)
  | Bool_lit of bool  (** ['1'] / ['0'] *)
  | All_zeros  (** a zero vector of whatever width the context needs *)
  | Binop of binop * expr * expr
  | Not of expr
  | Concat of expr list  (** most significant element first *)

type case_choice = Choice_ref of string | Choice_others

type stmt =
  | Assign of expr * expr  (** signal assignment *)
  | If of (expr * stmt list) list * stmt list  (** elsif chain + else *)
  | Case of expr * (case_choice * stmt list) list
  | Comment of string

type dir = In | Out

type port = { port_name : string; dir : dir; width : int }
(** [width = 1] renders as [std_logic] / plain wire; [width = 0] is invalid. *)

type generic = { gen_name : string; gen_default : int }
    (** an integer generic (VHDL) / parameter (Verilog) *)

type signal_decl = { sig_name : string; sig_width : int }
type constant_decl = { const_name : string; const_width : int option; const_value : int }
(** [const_width = None] renders as an integer constant. *)

type process = {
  proc_name : string;
  clocked : bool;  (** wraps the body in [rising_edge(CLK)] / [posedge CLK] *)
  sensitivity : string list;  (** ignored when [clocked] (clock implied) *)
  body : stmt list;
}

type concurrent =
  | Proc of process
  | Cassign of expr * expr
  | Cassign_cond of expr * (expr * expr) list * expr
      (** [target <= v1 when c1 else v2 when c2 else vdef] *)
  | Instance of {
      inst_name : string;
      comp_name : string;  (** the instantiated design's [name] *)
      generic_map : (string * int) list;
      port_map : (string * expr) list;
    }
  | Ccomment of string

type design = {
  header : string list;  (** comment lines at the top of the file *)
  name : string;  (** entity / module name *)
  generics : generic list;
  ports : port list;
  constants : constant_decl list;
  signals : signal_decl list;
  body : concurrent list;
}

val clk_port : port
val rst_port : port

val validate : design -> (unit, string list) result
(** Structural sanity: unique port/signal/constant names, no zero-width
    ports/signals, case/if shapes non-empty. *)
