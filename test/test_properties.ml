(* Cross-cutting property tests: randomly generated specifications survive
   print/re-parse, validate consistently, generate marker-free HDL, and —
   the big one — random data pushed through a random function on a random
   bus comes back exactly as the golden behaviour computed it.

   Spec/traffic generation and the golden digest model live in
   [Splice.Specgen] (shared with the [splice fuzz] differential harness);
   this file wires them into QCheck. The QCheck run seed is printed on
   start-up and can be pinned with the QCHECK_SEED environment variable, so
   any failing run reproduces exactly:

     QCHECK_SEED=123456 dune runtest *)

open Splice

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> failwith "QCHECK_SEED must be an integer")
  | None ->
      Random.self_init ();
      Random.bits ()

let () =
  Printf.printf "properties: QCHECK_SEED=%d (export to reproduce this run)\n%!"
    seed

(* every property draws from its own state seeded identically, so tests
   reproduce individually and their order does not matter *)
let prop ?(count = 60) name arb f =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count ~name arb f)

(* -------- Specgen wired into QCheck -------- *)

(* one int of QCheck randomness seeds a deterministic Specgen stream; the
   printed counterexample is the rendered spec itself *)
let gen_spec =
  QCheck.Gen.(
    map (fun n -> Specgen.spec (Specgen.Rng.make n)) (int_bound 0x3FFFFFFF))

let shrink_spec g = QCheck.Iter.of_list (Specgen.shrink g)
let arb_spec = QCheck.make ~print:Specgen.render ~shrink:shrink_spec gen_spec

let spec_props =
  [
    prop ~count:120 "random specs validate on every registered bus" arb_spec
      (fun g ->
        List.for_all
          (fun bus ->
            match Specgen.validate (Specgen.with_bus g bus) with
            | Ok _ -> true
            | Error _ -> false)
          (Registry.names ()));
    prop ~count:120 "parse -> print -> parse is stable" arb_spec (fun g ->
        let src = Specgen.render g in
        let ast = Parser.parse_file src in
        let printed = Format.asprintf "%a" Ast.pp_file ast in
        Parser.parse_file printed = ast);
    prop ~count:60 "generated HDL has no leftover markers" arb_spec (fun g ->
        match Specgen.validate g with
        | Error _ -> false
        | Ok spec ->
            let p = Project.generate ~gen_date:"prop" spec in
            List.for_all
              (fun (f : Project.file) ->
                not (Filename.check_suffix f.path ".vhd")
                || Template.markers_in f.contents = [])
              (Project.files p));
    prop ~count:40 "generated VHDL lints clean" arb_spec (fun g ->
        match Specgen.validate g with
        | Error _ -> false
        | Ok spec ->
            let p = Project.generate ~gen_date:"prop" spec in
            List.for_all
              (fun (f : Project.file) ->
                (not (Filename.check_suffix f.path ".vhd"))
                || Vhdl_lint.lint f.contents = [])
              (Project.files p));
    prop ~count:60 "every generated stub design validates" arb_spec (fun g ->
        match Specgen.validate g with
        | Error _ -> false
        | Ok spec ->
            List.for_all
              (fun f -> Hdl_ast.validate (Stubgen.design spec f) = Ok ())
              spec.Spec.funcs
            && Hdl_ast.validate (Arbitergen.design spec) = Ok ());
  ]

(* -------- random end-to-end loopback -------- *)

(* Specgen's traffic generator and digest-echo behaviour (the same golden
   model the differential fuzzer asserts): any marshalling slip — dropped
   word, swapped parameter, missed sign extension — changes the digest *)

let arb_loopback =
  QCheck.make
    ~print:(fun (g, tseed) ->
      Printf.sprintf "%s (traffic seed %d)" (Specgen.render g) tseed)
    ~shrink:(fun (g, tseed) ->
      QCheck.Iter.of_list (List.map (fun g' -> (g', tseed)) (Specgen.shrink g)))
    QCheck.Gen.(pair gen_spec small_nat)

let loopback_prop (g, tseed) =
  match Specgen.validate g with
  | Error _ -> false
  | Ok spec ->
      let tr = Specgen.traffic (Specgen.Rng.make tseed) spec in
      let host =
        Host.create spec
          ~behaviors:
            (Specgen.behavior ~calc_cycles:tr.Specgen.t_calc_cycles)
      in
      List.for_all
        (fun (c : Specgen.call) ->
          let f =
            List.find
              (fun (f : Spec.func) -> f.Spec.name = c.Specgen.c_func)
              spec.Spec.funcs
          in
          match
            Host.call ~instance:c.Specgen.c_instance host
              ~func:c.Specgen.c_func ~args:c.Specgen.c_args
          with
          | result, cycles ->
              cycles > 0
              && result = Specgen.expected_output f ~args:c.Specgen.c_args
          | exception e ->
              QCheck.Test.fail_reportf "%s: %s" c.Specgen.c_func
                (Printexc.to_string e))
        tr.Specgen.t_calls

(* -------- robustness fuzzing -------- *)

let arb_garbage =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      let token =
        oneofl
          [
            "int"; "void"; "nowait"; "%"; "bus_type"; "("; ")"; "{"; "}"; "*";
            ":"; "+"; "^"; "&"; ";"; ","; "x"; "42"; "0x"; "0xFF"; "//c\n";
            "/*"; "*/"; "plb"; "%user_struct"; "double"; "\n";
          ]
      in
      map (String.concat " ") (list_size (int_range 0 40) token))

(* text that must never reach a .v file outside a [//] comment: VHDL-only
   tokens and the SystemVerilog fill literal ['0], which Verilog-2001 tools
   reject. Returns the tokens found, in the order listed. *)
let non_verilog_2001 contents =
  let code =
    String.split_on_char '\n' contents
    |> List.map (fun line ->
           let n = String.length line in
           let rec cut i =
             if i + 1 >= n then line
             else if line.[i] = '/' && line.[i + 1] = '/' then String.sub line 0 i
             else cut (i + 1)
           in
           cut 0)
    |> String.concat "\n"
  in
  let words =
    String.split_on_char ' '
      (String.map
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
           | _ -> ' ')
         code)
  in
  List.filter (Astring_contains.contains code)
    [ "downto"; "std_logic"; "to_unsigned"; "to_integer"; "'length"; "/="; "others =>"; "'0" ]
  @ List.filter (fun w -> List.mem w words) [ "and"; "not" ]

(* every .v file is a module and carries no VHDL *)
let verilog_clean (p : Project.t) =
  List.for_all
    (fun (f : Project.file) ->
      (not (Filename.check_suffix f.path ".v"))
      || Astring_contains.contains f.contents "module"
         && Astring_contains.contains f.contents "endmodule"
         && non_verilog_2001 f.contents = [])
    (Project.files p)

let verilog_props =
  [
    prop ~count:40 "Verilog output generates for random specs (§10.2)" arb_spec
      (fun g ->
        match Specgen.validate g with
        | Error _ -> false
        | Ok spec ->
            let spec = { spec with Spec.hdl = Ast.Verilog } in
            verilog_clean (Project.generate ~gen_date:"prop" spec));
    Alcotest.test_case "packet_cksum's Verilog carries no VHDL" `Quick (fun () ->
        let p =
          Project.from_source ~gen_date:"prop"
            (Test_specs_dir.read_file
               (List.assoc "packet_cksum.splice" (Test_specs_dir.spec_files ())))
        in
        List.iter
          (fun (f : Project.file) ->
            if Filename.check_suffix f.path ".v" then
              Alcotest.(check (list string)) f.path [] (non_verilog_2001 f.contents))
          (Project.files p);
        Alcotest.(check bool) "clean" true (verilog_clean p));
  ]

let fuzz_props =
  [
    prop ~count:400 "parser fails only with Splice_error on garbage" arb_garbage
      (fun src ->
        match Parser.parse_file src with
        | _ -> true
        | exception Error.Splice_error _ -> true
        | exception _ -> false);
    prop ~count:400 "validator fails only with issues on garbage" arb_garbage
      (fun src ->
        match Validate.of_string ~lookup_bus:Registry.lookup_caps src with
        | Ok _ | Error _ -> true
        | exception _ -> false);
    prop ~count:200 "lexer locations are sane" arb_garbage (fun src ->
        match Lexer.tokenize src with
        | toks ->
            List.for_all
              (fun (_, (l : Loc.t)) -> l.Loc.line >= 1 && l.Loc.col >= 1)
              toks
        | exception Error.Splice_error _ -> true);
  ]

(* -------- the service's request path -------- *)

(* JSON values over the request vocabulary: objects keyed mostly by the
   fields [Protocol.parse] reads, holding every kind of value, so the
   parser is driven past its kind dispatch into every field check *)
let gen_json =
  QCheck.Gen.(
    let key =
      frequency
        [
          ( 4,
            oneofl
              [
                "kind"; "seed"; "count"; "bus"; "sched"; "ratio"; "depth";
                "cache"; "cache_size"; "source"; "dump"; "ms"; "id";
              ] );
          (1, string_size ~gen:char (int_range 0 6));
        ]
    in
    let str =
      frequency
        [
          (2, oneofl Serve_protocol.kinds);
          (1, oneofl ("3:1" :: "0:2" :: "all" :: "both" :: Registry.names ()));
          (2, string_size ~gen:char (int_range 0 12));
        ]
    in
    let finite f = if Float.is_finite f then f else 0.5 in
    let scalar =
      frequency
        [
          (1, return Json.Null);
          (1, map (fun b -> Json.Bool b) bool);
          (3, map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]));
          ( 2,
            map
              (fun f -> Json.Float f)
              (oneof [ map finite float; map float_of_int int ]) );
          (3, map (fun s -> Json.String s) str);
        ]
    in
    sized
    @@ fix (fun self n ->
           if n <= 1 then scalar
           else
             frequency
               [
                 (2, scalar);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (int_range 0 4) (self (n / 4))) );
                 ( 2,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_range 0 5) (pair key (self (n / 4)))) );
               ]))

let arb_json = QCheck.make ~print:Json.to_string gen_json

(* request lines: arbitrary bytes, JSON token soup, and encoded values cut
   at an arbitrary point *)
let arb_line =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      let token =
        oneofl
          [
            "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; "\\u"; "\\u00"; "00e";
            "\"kind\""; "\"fuzz\""; "\"seed\""; "-"; "1"; "1e400"; "-0";
            "0x1F"; "1.5"; "true"; "nul"; "null"; " "; "\n"; "\xff";
          ]
      in
      frequency
        [
          (1, string ~gen:char);
          (2, map (String.concat "") (list_size (int_range 0 30) token));
          ( 2,
            map2
              (fun v cut ->
                let s = Json.to_string v in
                String.sub s 0 (cut mod (String.length s + 1)))
              gen_json nat );
          (1, map Json.to_string gen_json);
        ])

let never_raises f x = match f x with Ok _ | Error _ -> true | exception _ -> false

let request_props =
  [
    prop ~count:500 "Json.of_string never raises" arb_line
      (never_raises Json.of_string);
    prop ~count:500 "Protocol.parse_line never raises" arb_line
      (never_raises Serve_protocol.parse_line);
    prop ~count:300 "Protocol.parse never raises on any JSON value" arb_json
      (never_raises Serve_protocol.parse);
    prop ~count:500 "Json.of_string (Json.to_string v) = Ok v" arb_json
      (fun v -> Json.of_string (Json.to_string v) = Ok v);
  ]

(* -------- flight-recorder dumps -------- *)

(* A real dump: one call through a recorded PLB host, with a context line
   and the run's metrics snapshot, on a ring small enough to wrap. *)
let recorded_dump =
  lazy
    (let spec =
       Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
         "%device_name rec\n%bus_type plb\n%bus_width 32\n\
          %base_address 0x80000000\nint sum(int n, int*:n xs);"
     in
     let obs = Obs.create ~ring:64 () in
     let host =
       Host.create ~obs spec ~behaviors:(fun _ ->
           Stub_model.behavior ~cycles:3 (fun inputs ->
               [ List.fold_left Int64.add 0L (List.assoc "xs" inputs) ]))
     in
     ignore
       (Host.call host ~func:"sum"
          ~args:[ ("n", [ 4L ]); ("xs", [ 1L; 2L; 3L; 4L ]) ]);
     let r = Option.get (Obs.recorder obs) in
     ( r,
       Recorder.dump_string ~context:"sum: \"quoted\" context" ~metrics:(Obs.metrics obs) r ))

(* damage to a dump: a truncation, or a few bytes overwritten — mostly
   with JSON punctuation, digits and tag letters, so the damage reaches
   past the tokenizer into the dump's own field checks *)
type dump_edit = Cut of int | Overwrite of (int * char) list

let arb_dump_edit =
  let vocab = "{}[]\":,\\-.0123456789eEfatsnulx \n\000\255" in
  QCheck.make
    ~print:(function
      | Cut n -> Printf.sprintf "cut at %d" n
      | Overwrite l ->
          String.concat "; "
            (List.map (fun (i, c) -> Printf.sprintf "%d := %C" i c) l))
    QCheck.Gen.(
      let pos = int_bound 1_000_000 in
      frequency
        [
          (1, map (fun n -> Cut n) pos);
          ( 3,
            map
              (fun l -> Overwrite l)
              (list_size (int_range 1 8)
                 (pair pos
                    (frequency
                       [
                         (3, map (String.get vocab) (int_bound (String.length vocab - 1)));
                         (1, char);
                       ]))) );
        ])

let apply_dump_edit s = function
  | Cut n -> String.sub s 0 (n mod (String.length s + 1))
  | Overwrite l ->
      let b = Bytes.of_string s in
      List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) l;
      Bytes.to_string b

let dump_props =
  [
    Alcotest.test_case "an intact dump parses back to the recorder's events"
      `Quick (fun () ->
        let r, dump = Lazy.force recorded_dump in
        match Query.of_string dump with
        | Error e -> Alcotest.failf "dump did not parse: %s" e
        | Ok d ->
            let triples =
              List.map
                (fun (e : Query.event) -> (e.ev_cycle, e.ev_kind, e.ev_subject))
                d.Query.d_events
            in
            Alcotest.(check bool) "ring wrapped" true (Recorder.total r > 64);
            Alcotest.(check int) "window" 64 (List.length triples);
            Alcotest.(check bool) "events = Recorder.events" true
              (triples
              = List.map
                  (fun (e : Recorder.event) -> (e.e_cycle, e.e_kind, e.e_subject))
                  (Recorder.events r));
            Alcotest.(check bool) "events = Query.of_recorder" true
              (d.Query.d_events = (Query.of_recorder r).Query.d_events);
            Alcotest.(check (option string)) "context"
              (Some "sum: \"quoted\" context") d.Query.d_context;
            Alcotest.(check bool) "metrics snapshot" true (d.Query.d_counters <> []));
    prop ~count:1000 "Query.of_string never raises on a damaged dump"
      arb_dump_edit (fun edit ->
        never_raises Query.of_string
          (apply_dump_edit (snd (Lazy.force recorded_dump)) edit));
  ]

let loopback_props =
  [
    prop ~count:60 "random data loopback through random peripherals"
      arb_loopback loopback_prop;
  ]

(* -------- signal store vs a Bits-only reference model -------- *)

(* The signal store keeps narrow values as immediate ints and queues
   deferred writes in reused arrays. The model below keeps every value as a
   [Bits.t] and the queue as a newest-first list, the representation the
   store replaced; random op sequences at the representation edges (1, 8,
   62, 63, 64 bits; negative and out-of-range ints) must leave both in the
   same observable state after every op. *)

let store_widths = [| 1; 8; 62; 63; 64 |]

type store_op =
  | Set of int * int64
  | Set_bool of int * bool
  | Set_int of int * int
  | Set_next of int * int64
  | Set_next_bool of int * bool
  | Set_next_int of int * int
  | Commit
  | Clear_for of int  (** owner 1 or 2 *)
  | Restore of int * int64

let pp_store_op = function
  | Set (i, v) -> Printf.sprintf "set s%d 0x%Lx" i v
  | Set_bool (i, b) -> Printf.sprintf "set_bool s%d %b" i b
  | Set_int (i, n) -> Printf.sprintf "set_int s%d %d" i n
  | Set_next (i, v) -> Printf.sprintf "set_next s%d 0x%Lx" i v
  | Set_next_bool (i, b) -> Printf.sprintf "set_next_bool s%d %b" i b
  | Set_next_int (i, n) -> Printf.sprintf "set_next_int s%d %d" i n
  | Commit -> "commit_pending"
  | Clear_for o -> Printf.sprintf "clear_pending_for %d" o
  | Restore (i, v) -> Printf.sprintf "restore_value s%d 0x%Lx" i v

let gen_store_op =
  QCheck.Gen.(
    let sig_ = int_bound (Array.length store_widths - 1) in
    let i64 =
      oneof
        [
          oneofl [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0xFFL; 0x3FFFFFFFFFFFFFFFL ];
          map Int64.of_int int;
          ui64;
        ]
    in
    let int_ =
      oneof
        [
          oneofl [ 0; 1; -1; 255; 256; max_int; min_int; 1 lsl 61; (1 lsl 62) - 1 ];
          int;
          small_signed_int;
        ]
    in
    frequency
      [
        (3, map2 (fun i v -> Set (i, v)) sig_ i64);
        (2, map2 (fun i b -> Set_bool (i, b)) sig_ bool);
        (3, map2 (fun i n -> Set_int (i, n)) sig_ int_);
        (3, map2 (fun i v -> Set_next (i, v)) sig_ i64);
        (1, map2 (fun i b -> Set_next_bool (i, b)) sig_ bool);
        (3, map2 (fun i n -> Set_next_int (i, n)) sig_ int_);
        (3, return Commit);
        (1, map (fun o -> Clear_for (1 + o)) (int_bound 1));
        (1, map2 (fun i v -> Restore (i, v)) sig_ i64);
      ])

let arb_store_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 60) gen_store_op)

let store_prop ops =
  Signal.clear_pending ();
  let n = Array.length store_widths in
  let sigs =
    Array.mapi
      (fun i w ->
        let s = Signal.create ~name:(Printf.sprintf "s%d" i) w in
        Signal.set_owner s ~owner:(1 + (i land 1));
        s)
      store_widths
  in
  let fired = Array.make n 0 in
  Array.iteri (fun i s -> Signal.on_change s (fun () -> fired.(i) <- fired.(i) + 1)) sigs;
  (* the model *)
  let value = Array.map Bits.zero store_widths in
  let m_fired = Array.make n 0 in
  let m_changes = ref 0 in
  let pending = ref [] in
  let m_set i v =
    if not (Bits.equal value.(i) v) then begin
      value.(i) <- v;
      incr m_changes;
      m_fired.(i) <- m_fired.(i) + 1
    end
  in
  let bits i v = Bits.create ~width:store_widths.(i) v in
  let bool_ok i = store_widths.(i) = 1 in
  let changes0 = Signal.change_count () in
  (* [mismatch]: the store raised where the model does not, or the other
     way round (only the bool setters on wider signals raise) *)
  let step op =
    let mismatch =
      match op with
      | Set (i, v) -> Signal.set sigs.(i) (bits i v); m_set i (bits i v); false
      | Set_int (i, k) ->
          Signal.set_int sigs.(i) k;
          m_set i (Bits.of_int ~width:store_widths.(i) k);
          false
      | Set_bool (i, b) -> (
          match Signal.set_bool sigs.(i) b with
          | () -> if bool_ok i then m_set i (Bits.of_bool b); not (bool_ok i)
          | exception Bits.Width_mismatch _ -> bool_ok i)
      | Set_next (i, v) ->
          Signal.set_next sigs.(i) (bits i v);
          pending := (i, bits i v) :: !pending;
          false
      | Set_next_int (i, k) ->
          Signal.set_next_int sigs.(i) k;
          pending := (i, Bits.of_int ~width:store_widths.(i) k) :: !pending;
          false
      | Set_next_bool (i, b) -> (
          match Signal.set_next_bool sigs.(i) b with
          | () ->
              if bool_ok i then pending := (i, Bits.of_bool b) :: !pending;
              not (bool_ok i)
          | exception Bits.Width_mismatch _ -> bool_ok i)
      | Commit ->
          Signal.commit_pending ();
          let seen = Array.make n false in
          let writes = !pending in
          pending := [];
          List.iter
            (fun (i, v) ->
              if not seen.(i) then begin
                seen.(i) <- true;
                m_set i v
              end)
            writes;
          false
      | Clear_for o ->
          Signal.clear_pending_for ~owner:o;
          pending := List.filter (fun (i, _) -> Signal.owner sigs.(i) <> o) !pending;
          false
      | Restore (i, v) ->
          Signal.restore_value sigs.(i) (bits i v);
          value.(i) <- bits i v;
          false
    in
    if mismatch then QCheck.Test.fail_reportf "%s: raise mismatch" (pp_store_op op);
    let int_of f = match f () with v -> Some v | exception Failure _ -> None in
    Array.iteri
      (fun i s ->
        let fail what =
          QCheck.Test.fail_reportf "after %s: s%d (%d bits) %s" (pp_store_op op) i
            store_widths.(i) what
        in
        if not (Bits.equal (Signal.get s) value.(i)) then
          fail
            (Printf.sprintf "get %s, model %s"
               (Bits.to_hex_string (Signal.get s))
               (Bits.to_hex_string value.(i)));
        if int_of (fun () -> Signal.get_int s) <> int_of (fun () -> Bits.to_int value.(i))
        then fail "get_int differs";
        if Signal.get_bool s <> Bits.to_bool value.(i) then fail "get_bool differs";
        if fired.(i) <> m_fired.(i) then fail "listener firings differ")
      sigs;
    if Signal.change_count () - changes0 <> !m_changes then
      QCheck.Test.fail_reportf "after %s: change_count differs" (pp_store_op op)
  in
  List.iter step ops;
  Signal.clear_pending ();
  true

let store_props =
  [
    prop ~count:400 "signal store matches a Bits-only model" arb_store_ops
      store_prop;
  ]

(* -------- the stub bank's skips -------- *)

(* A peripheral's stubs are one component (§4.2). Its clocked process
   steps only the stubs in reset, selected by FUNC_ID, or counting down
   their calculation states; its combinational process drives only the
   stub FUNC_ID selects and the one it selected at its previous
   evaluation. Every scheduler runs that same component, so the
   event-vs-sweep oracle cannot see a wrong skip. These tests drive one
   peripheral's SIS lines by hand — reset, selection, write words, read
   requests, and through them calculation — and watch the bank from two
   seq-only components, one registered before the peripheral and one
   after, so they run just before and just after the bank on every edge.
   Before the bank, on settled lines: every stub's ports must hold its
   own [Stub_model.outputs]. A skipped evaluation that should have
   dropped a deselected stub's outputs leaves them stale. After the
   bank, outside reset: every stub the bank left alone (clocked state
   unchanged) is stepped once more on its own, and its clocked state and
   the write queue must not move, nor may it re-arm the bank's one
   component when that was not armed already.
   A skipped stub that should have acted moves; a stub the bank stepped
   without effect does not, since its step reads the same lines and
   state again. In reset, every stub must be back at its first input. *)

let bank_spec =
  Validate.of_string_exn ~lookup_bus:Registry.lookup_caps
    "%device_name bank\n%bus_type plb\n%bus_width 32\n%base_address 0x0\n\
     int add(int a, int b):2;\n\
     void fill(int*:3 v);\n\
     long long wide(char c);\n\
     int poll();\n\
     nowait kick(int x);\n"

let bank_behavior = function
  | "add" ->
      Stub_model.behavior ~cycles:3 (fun inputs ->
          [ List.fold_left (fun acc (_, vs) -> Int64.add acc (List.hd vs)) 0L inputs ])
  | "fill" -> Stub_model.behavior ~cycles:2 (fun _ -> [])
  | "wide" -> Stub_model.behavior ~cycles:4 (fun _ -> [ 0x1_0000_0002L ])
  | "poll" -> Stub_model.behavior (fun _ -> [ 7L ])
  | _ -> Stub_model.null_behavior

(* one tick of hand-driven SIS lines *)
type sis_drive = { d_rst : bool; d_fid : int; d_en : bool; d_valid : bool; d_data : int }

let pp_drive d =
  Printf.sprintf "%s fid=%d en=%b valid=%b data=%d"
    (if d.d_rst then "RST" else "-") d.d_fid d.d_en d.d_valid d.d_data

let gen_drive =
  QCheck.Gen.(
    map
      (fun (rst, fid, en, valid, data) ->
        { d_rst = rst = 0; d_fid = fid; d_en = en; d_valid = valid; d_data = data })
      (tup5 (int_bound 24)
         (int_bound (bank_spec.Spec.total_instances + 1))
         bool bool (int_bound 255)))

(* what the bank's skips were tried on *)
type bank_tally = {
  mutable alone : int;  (** stubs the seq left alone outside reset *)
  mutable in_words : int;  (** ... mid-input, some words taken *)
  mutable out : int;  (** ... with output words on offer *)
  mutable pending : int;  (** ... with a pending read or write *)
  mutable moved_in : int;
      (** FUNC_ID moved away from a stub raising IO_DONE mid-input *)
  mutable moved_out : int;
      (** FUNC_ID moved away from a stub driving DATA_OUT_VALID *)
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* the ports, as [Stub_model.outputs] states them *)
let port_values s =
  let p = Stub_model.ports s in
  ( Signal.get p.Stub_model.data_out,
    Signal.get_bool p.Stub_model.data_out_valid,
    Signal.get_bool p.Stub_model.io_done )

(* runs [drives] and returns the tally; the first broken rule is an [Error] *)
let run_bank ?(sched = `Event) drives =
  let kernel = Kernel.create ~sched () in
  let tally =
    { alone = 0; in_words = 0; out = 0; pending = 0; moved_in = 0; moved_out = 0 }
  in
  let broken = ref None in
  let break fmt = Printf.ksprintf (fun m -> if !broken = None then broken := Some m) fmt in
  (* filled in once the peripheral exists *)
  let stubs = ref [||] and func_id = ref None in
  (* per stub, at the previous settle: FUNC_ID and the ports *)
  let last_fid = ref (-1) and last_ports = ref [||] and before = ref [||] in
  let watch_before () =
    let fid = match !func_id with Some s -> Signal.get_int s | None -> -1 in
    let ports = Array.map port_values !stubs in
    Array.iteri
      (fun i s ->
        let id = Stub_model.func_id s in
        let w, valid, io_done = ports.(i) and w', valid', io_done' = Stub_model.outputs s in
        if not (Bits.equal w w' && valid = valid' && io_done = io_done') then
          break "id %d drives (%s, %b, %b), its outputs are (%s, %b, %b)" id
            (Bits.to_hex_string w) valid io_done (Bits.to_hex_string w') valid' io_done';
        if id = !last_fid && fid <> id then begin
          let _, valid, io_done = !last_ports.(i) in
          if valid then tally.moved_out <- tally.moved_out + 1
          else if io_done then tally.moved_in <- tally.moved_in + 1
        end)
      !stubs;
    last_fid := fid;
    last_ports := ports;
    before := Array.map Stub_model.clocked_state !stubs
  in
  Kernel.add kernel (Component.make ~seq:watch_before "before-bank");
  let periph =
    Peripheral.build ~monitor:false kernel bank_spec ~behaviors:bank_behavior
  in
  let sis = Peripheral.sis periph in
  stubs := Array.of_list (Peripheral.stubs periph);
  func_id := Some sis.Sis_if.func_id;
  (* the bank's one component; whether it is armed before a stub's extra
     step, so a step that re-arms it shows *)
  let comp = Stub_model.component !stubs.(0) in
  let watch_after () =
    let st = Signal.store () in
    let armed = comp.Component.dirty in
    Array.iteri
      (fun i s ->
        let id = Stub_model.func_id s in
        let now = Stub_model.clocked_state s in
        if Signal.get_bool sis.Sis_if.rst then begin
          if not (Stub_model.state s = Stub_model.Input 0
                  && contains now "got 0/" && contains now "pending read false write false")
          then break "id %d not at its first input in reset: %s" id now
        end
        else if String.equal now !before.(i) then begin
          let queued = Signal.pending st in
          Stub_model.seq s;
          let again = Stub_model.clocked_state s in
          tally.alone <- tally.alone + 1;
          (match Stub_model.state s with
          | Stub_model.Input _ when not (contains now "got 0/") ->
              tally.in_words <- tally.in_words + 1
          | Stub_model.Output -> tally.out <- tally.out + 1
          | Stub_model.Input _ | Stub_model.Calc -> ());
          if contains now "true" then tally.pending <- tally.pending + 1;
          if not (String.equal now again) then
            break "id %d left alone, but its step moves it: %s -> %s" id now again
          else if Signal.pending st <> queued then
            break "id %d left alone, but its step queues a write" id
          else if (not armed) && comp.Component.dirty then
            break "id %d left alone, but its step re-arms it" id
        end)
      !stubs
  in
  Kernel.add kernel (Component.make ~seq:watch_after "after-bank");
  let rec go tick = function
    | [] -> Ok tally
    | d :: rest -> (
        Signal.set_bool sis.Sis_if.rst d.d_rst;
        Signal.set_int sis.Sis_if.func_id d.d_fid;
        Signal.set_bool sis.Sis_if.io_enable d.d_en;
        Signal.set_bool sis.Sis_if.data_in_valid d.d_valid;
        Signal.set_int sis.Sis_if.data_in d.d_data;
        Kernel.cycle kernel;
        match !broken with
        | Some m -> Error (Printf.sprintf "tick %d (%s): %s" tick (pp_drive d) m)
        | None -> go (tick + 1) rest)
  in
  let r = go 0 drives in
  Signal.clear_pending ();
  r

let arb_drives =
  QCheck.make
    ~print:(fun ds -> String.concat "\n" (List.map pp_drive ds))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 120) gen_drive)

let bank_id name =
  (List.find (fun (f : Spec.func) -> String.equal f.Spec.name name) bank_spec.Spec.funcs)
    .Spec.func_id

(* FUNC_ID moves away from a stub mid-input (add#0 with its first word
   taken and the write still presented) and mid-output (wide with its
   first word served and one to go, the read still presented), then comes
   back to each *)
let bank_moves =
  let d ?(rst = false) ?(en = false) ?(valid = false) ?(data = 0) fid =
    { d_rst = rst; d_fid = fid; d_en = en; d_valid = valid; d_data = data }
  in
  let add = bank_id "add" and fill = bank_id "fill" and wide = bank_id "wide"
  and poll = bank_id "poll" in
  [ d ~rst:true add; d ~en:true ~valid:true ~data:5 add;
    d ~en:true ~valid:true ~data:6 fill; d fill; d ~en:true ~valid:true ~data:7 add ]
  @ [ d ~en:true ~valid:true ~data:1 wide ]
  @ List.init 5 (fun _ -> d wide)
  @ [ d ~en:true wide; d ~en:true poll; d poll; d ~en:true wide; d wide ]

let sched_label = function `Event -> "event" | `Sweep -> "sweep" | `Compiled -> "compiled"

let bank_props =
  List.map
    (fun sched ->
      prop ~count:200
        (Printf.sprintf
           "the bank drives every stub's outputs and skips only idle steps (%s)"
           (sched_label sched))
        arb_drives
        (fun ds ->
          match run_bank ~sched ds with
          | Ok _ -> true
          | Error m -> QCheck.Test.fail_reportf "%s" m))
    [ `Event; `Sweep; `Compiled ]
  @ [
      Alcotest.test_case "the bank leaves stubs alone mid-input, in output and pending"
        `Quick (fun () ->
          let rand = Random.State.make [| 7919 |] in
          let drives = List.init 3000 (fun _ -> gen_drive rand) in
          match run_bank drives with
          | Error m -> Alcotest.fail m
          | Ok t ->
              Alcotest.(check bool) "left alone" true (t.alone > 0);
              Alcotest.(check bool) "left alone mid-input" true (t.in_words > 0);
              Alcotest.(check bool) "left alone in output" true (t.out > 0);
              Alcotest.(check bool) "left alone while pending" true (t.pending > 0);
              Alcotest.(check bool) "deselected mid-input" true (t.moved_in > 0);
              Alcotest.(check bool) "deselected mid-output" true (t.moved_out > 0));
      Alcotest.test_case "a stub FUNC_ID leaves mid-input or mid-output drives zeros"
        `Quick (fun () ->
          List.iter
            (fun sched ->
              match run_bank ~sched bank_moves with
              | Error m -> Alcotest.failf "%s: %s" (sched_label sched) m
              | Ok t ->
                  Alcotest.(check (pair int int))
                    (sched_label sched ^ ": moves mid-input, mid-output")
                    (2, 1) (t.moved_in, t.moved_out))
            [ `Event; `Sweep; `Compiled ]);
    ]

(* -------- sleeping processes: a jumping run equals a stepping one -------- *)

(* A kernel on [Obs.none] skips sleeping processes and jumps over ticks
   where none can act; an observed kernel steps every tick. Both must give
   the same results, per-call cycles and kernel counters. The observed
   kernel also registers its observers as checks, each run on every tick
   of these single-clock runs: its [checks_run] exceeds the jumping one's
   by exactly one per extra check per tick. *)

type run = {
  calls : ((int64 list * int), string) result list;  (** per call, in order *)
  counters : int * int * int * int;  (** cycles, comb_iters, comb_evals, checks_run *)
  stepped : int;
  registered : int;  (** checks registered on the kernel *)
}

let observe host calls =
  let calls =
    List.map
      (fun f -> match f host with r -> Ok r | exception e -> Error (Printexc.to_string e))
      calls
  in
  let s = Kernel.stats (Host.kernel host) in
  {
    calls;
    counters = (s.Kernel.cycles, s.Kernel.comb_iters, s.Kernel.comb_evals, s.Kernel.checks_run);
    stepped = s.Kernel.stepped;
    registered = List.length (Kernel.check_names (Host.kernel host));
  }

(* a fuzz cell as [splice fuzz] builds it, bus monitor included *)
let cell_run ?sched ~obs spec (tr : Specgen.traffic) =
  let host =
    Host.create ?sched ~obs spec
      ~behaviors:(Specgen.behavior ~calc_cycles:tr.Specgen.t_calc_cycles)
  in
  Host.adopt host (fun () ->
      Bus_monitor.attach (Host.kernel host) ~bus:spec.Spec.bus_name (Host.sis host));
  observe host
    (List.map
       (fun (c : Specgen.call) host ->
         Host.call ~instance:c.Specgen.c_instance host ~func:c.Specgen.c_func
           ~args:c.Specgen.c_args)
       tr.Specgen.t_calls)

let same_run what (jumped : run) (stepped : run) =
  if jumped.calls <> stepped.calls then
    QCheck.Test.fail_reportf "%s: results or per-call cycles differ" what
  else if
    let c, i, e, r = jumped.counters in
    (c, i, e, r + (c * (stepped.registered - jumped.registered))) <> stepped.counters
  then
    let pp (c, i, e, r) = Printf.sprintf "cycles %d, comb_iters %d, comb_evals %d, checks_run %d" c i e r in
    QCheck.Test.fail_reportf "%s: stats differ: %s jumping, %s stepping" what
      (pp jumped.counters) (pp stepped.counters)
  else jumped.stepped <= stepped.stepped

(* the decoder's side of the sleep contract: a tick it calls quiet has
   the same facts as the next one when the lines hold, so a protocol
   check that slept through that tick would have seen what it saw *)
type lines = { l_rst : bool; l_fid : int; l_en : bool; l_valid : bool; l_done : bool; l_dov : bool; l_data : int }

let gen_lines =
  QCheck.Gen.(
    map
      (fun ((rst, fid, en), (valid, done_, dov), (data, hold)) ->
        ( { l_rst = rst = 0; l_fid = fid; l_en = en; l_valid = valid; l_done = done_; l_dov = dov; l_data = data },
          hold ))
      (triple
         (triple (int_bound 12) (int_bound 3) bool)
         (triple bool bool bool)
         (pair (int_bound 3) (int_range 1 4))))

let facts (d : Sis_if.decoder) =
  Printf.sprintf "%b %b %b %b %b %d %b %b %b %b %b %b %s %d %b %b %b %d" d.reset d.strobe d.valid
    d.done_ d.read_data d.fid d.write d.read d.word_done d.opens d.closes d.wait
    (match d.pending with Sis_if.Idle -> "idle" | Sis_if.Write -> "write" | Sis_if.Read -> "read")
    d.held_fid d.data_moved d.prev_done d.prev_strobe d.last_grant

let quiet_repeats drives =
  let sis = Sis_if.create ~bus_width:8 ~func_id_width:2 ~instances:3 () in
  let ticks = List.concat_map (fun (l, hold) -> List.init hold (fun _ -> l)) drives in
  let rec go tick prev = function
    | [] -> true
    | l :: rest ->
        Signal.set_bool sis.Sis_if.rst l.l_rst;
        Signal.set_int sis.Sis_if.func_id l.l_fid;
        Signal.set_bool sis.Sis_if.io_enable l.l_en;
        Signal.set_bool sis.Sis_if.data_in_valid l.l_valid;
        Signal.set_bool sis.Sis_if.io_done l.l_done;
        Signal.set_bool sis.Sis_if.data_out_valid l.l_dov;
        Signal.set_int sis.Sis_if.data_in l.l_data;
        let d = Sis_if.decode sis tick in
        let now = (l, facts d, Sis_if.quiet d) in
        (match prev with
        | Some (l', f', true) when l' = l && f' <> facts d ->
            QCheck.Test.fail_reportf "tick %d: quiet tick's facts %s, next tick's %s" tick f' (facts d)
        | _ -> ());
        go (tick + 1) (Some now) rest
  in
  go 0 None ticks

let single_clock_buses = List.filter (fun b -> b <> "axi") (Registry.names ())

let sleep_props =
  [
    prop ~count:300 "a quiet decoder's facts repeat while the lines hold"
      (QCheck.make QCheck.Gen.(list_size (int_range 1 60) gen_lines)) quiet_repeats;
    prop ~count:40 "a jumping run equals a stepping one on every single-clock bus"
      arb_loopback (fun (g, tseed) ->
        List.for_all
          (fun bus ->
            match Specgen.validate (Specgen.with_bus g bus) with
            | Error _ -> false
            | Ok spec ->
                let tr = Specgen.traffic (Specgen.Rng.make tseed) spec in
                same_run bus (cell_run ~obs:Obs.none spec tr)
                  (cell_run ~obs:(Obs.create ()) spec tr))
          single_clock_buses);
    Alcotest.test_case "the 20 Fig 9.2 runs jump and equal the stepped runs" `Quick
      (fun () ->
        let grid ~obs impl =
          observe
            (Interpolator.make_host ~obs impl)
            (List.map
               (fun s host ->
                 let v, cycles = Interpolator.run host s in
                 ([ v ], cycles))
               Interp_scenarios.all)
        in
        let runs =
          List.map
            (fun impl ->
              let name = Interpolator.impl_name impl in
              let jumped = grid ~obs:Obs.none impl and stepped = grid ~obs:(Obs.create ()) impl in
              (match same_run name jumped stepped with
              | true -> ()
              | false -> Alcotest.failf "%s: stepped more ticks than the stepping run" name
              | exception QCheck.Test.Test_fail (_, msgs) -> Alcotest.fail (String.concat "; " msgs));
              jumped)
            Interpolator.all_impls
        in
        Alcotest.(check int) "20 runs" 20 (List.length (List.concat_map (fun r -> r.calls) runs));
        let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
        let ticks = sum (fun r -> let c, _, _, _ = r.counters in c) in
        Alcotest.(check bool) "the grid jumps" true (sum (fun r -> r.stepped) < ticks));
  ]

(* -------- productive passes are counted alike -------- *)

(* [Kernel.stats]'s [comb_iters] counts the delta passes that changed a
   signal, the same way under the event and sweep schedulers, so the two
   agree on every fuzz cell, the two-clock AXI cells included (the
   compiled tape does not: see DESIGN.md "Scheduling model") *)
let iters_props =
  [
    prop ~count:30 "event and sweep count the same productive passes on every bus"
      arb_loopback (fun (g, tseed) ->
        List.for_all
          (fun bus ->
            match Specgen.validate (Specgen.with_bus g bus) with
            | Error _ -> false
            | Ok spec ->
                let tr = Specgen.traffic (Specgen.Rng.make tseed) spec in
                let run sched = cell_run ~sched ~obs:Obs.none spec tr in
                let event = run `Event and sweep = run `Sweep in
                let iters r = match r.counters with _, i, _, _ -> i in
                if event.calls <> sweep.calls then
                  QCheck.Test.fail_reportf "%s: results or per-call cycles differ" bus
                else if iters event <> iters sweep then
                  QCheck.Test.fail_reportf "%s: comb_iters %d under event, %d under sweep"
                    bus (iters event) (iters sweep)
                else true)
          (Registry.names ()));
  ]

let tests =
  [
    ("properties.spec", spec_props);
    ("properties.signal_store", store_props);
    ("properties.stub_bank", bank_props);
    ("properties.verilog", verilog_props);
    ("properties.fuzz", fuzz_props);
    ("properties.request", request_props);
    ("properties.dump", dump_props);
    ("properties.loopback", loopback_props);
    ("properties.sleep", sleep_props);
    ("properties.comb_iters", iters_props);
  ]
