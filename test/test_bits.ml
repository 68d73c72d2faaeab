(* Unit + property tests for the Bits bit-vector module. *)

open Splice

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)
let check_str = Alcotest.(check string)

let t name f = Alcotest.test_case name `Quick f

let unit_tests =
  [
    t "create masks to width" (fun () ->
        check_i64 "masked" 0x5L (Bits.to_int64 (Bits.create ~width:4 0xF5L)));
    t "create width 64 keeps all bits" (fun () ->
        check_i64 "full" (-1L) (Bits.to_int64 (Bits.create ~width:64 (-1L))));
    t "invalid width 0 rejected" (fun () ->
        Alcotest.check_raises "zero" (Bits.Invalid_width 0) (fun () ->
            ignore (Bits.zero 0)));
    t "invalid width 65 rejected" (fun () ->
        Alcotest.check_raises "65" (Bits.Invalid_width 65) (fun () ->
            ignore (Bits.create ~width:65 0L)));
    t "of_bool" (fun () ->
        check_bool "true" true (Bits.to_bool (Bits.of_bool true));
        check_bool "false" false (Bits.to_bool (Bits.of_bool false));
        check_int "width" 1 (Bits.width (Bits.of_bool true)));
    t "ones" (fun () ->
        check_i64 "ones 8" 0xFFL (Bits.to_int64 (Bits.ones 8)));
    t "of_binary_string" (fun () ->
        let v = Bits.of_binary_string "1010_0101" in
        check_int "width" 8 (Bits.width v);
        check_i64 "value" 0xA5L (Bits.to_int64 v));
    t "of_binary_string rejects junk" (fun () ->
        Alcotest.check_raises "bad"
          (Invalid_argument "Bits.of_binary_string: bad char 2") (fun () ->
            ignore (Bits.of_binary_string "102")));
    t "to_binary_string roundtrip" (fun () ->
        check_str "bin" "1010" (Bits.to_binary_string (Bits.of_binary_string "1010")));
    t "add wraps modulo width" (fun () ->
        let a = Bits.of_int ~width:8 200 and b = Bits.of_int ~width:8 100 in
        check_int "wrap" 44 (Bits.to_int (Bits.add a b)));
    t "sub wraps" (fun () ->
        let a = Bits.of_int ~width:8 3 and b = Bits.of_int ~width:8 5 in
        check_int "wrap" 254 (Bits.to_int (Bits.sub a b)));
    t "width mismatch raises" (fun () ->
        Alcotest.check_raises "add"
          (Bits.Width_mismatch "Bits.add: 8 vs 16") (fun () ->
            ignore (Bits.add (Bits.zero 8) (Bits.zero 16))));
    t "unsigned comparisons" (fun () ->
        let a = Bits.of_int ~width:8 0xF0 and b = Bits.of_int ~width:8 0x10 in
        check_bool "gt" true (Bits.gt a b);
        check_bool "lt" true (Bits.lt b a);
        check_bool "ge refl" true (Bits.ge a a);
        check_bool "le refl" true (Bits.le a a));
    t "compare is unsigned" (fun () ->
        let a = Bits.create ~width:64 (-1L) and b = Bits.create ~width:64 1L in
        check_bool "max > 1" true (Bits.compare a b > 0));
    t "concat" (fun () ->
        let hi = Bits.of_int ~width:4 0xA and lo = Bits.of_int ~width:4 0x5 in
        let v = Bits.concat hi lo in
        check_int "width" 8 (Bits.width v);
        check_int "value" 0xA5 (Bits.to_int v));
    t "concat overflow rejected" (fun () ->
        Alcotest.check_raises "65" (Bits.Invalid_width 65) (fun () ->
            ignore (Bits.concat (Bits.zero 33) (Bits.zero 32))));
    t "select" (fun () ->
        let v = Bits.of_int ~width:16 0xABCD in
        check_int "hi nibble" 0xA (Bits.to_int (Bits.select v ~hi:15 ~lo:12));
        check_int "lo byte" 0xCD (Bits.to_int (Bits.select v ~hi:7 ~lo:0)));
    t "select bad range" (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Bits.select: [3:4] of width 8") (fun () ->
            ignore (Bits.select (Bits.zero 8) ~hi:3 ~lo:4)));
    t "bit and set_bit" (fun () ->
        let v = Bits.zero 8 in
        let v = Bits.set_bit v 3 true in
        check_bool "bit 3" true (Bits.bit v 3);
        check_bool "bit 2" false (Bits.bit v 2);
        let v = Bits.set_bit v 3 false in
        check_bool "cleared" false (Bits.bit v 3));
    t "resize extends and truncates" (fun () ->
        let v = Bits.of_int ~width:8 0xAB in
        check_int "extend" 0xAB (Bits.to_int (Bits.resize v 16));
        check_int "truncate" 0xB (Bits.to_int (Bits.resize v 4)));
    t "sign_extend" (fun () ->
        let v = Bits.of_int ~width:8 0x80 in
        check_i64 "negative" 0xFF80L (Bits.to_int64 (Bits.sign_extend v 16));
        let p = Bits.of_int ~width:8 0x7F in
        check_i64 "positive" 0x7FL (Bits.to_int64 (Bits.sign_extend p 16)));
    t "sign_extend cannot narrow" (fun () ->
        Alcotest.check_raises "narrow" (Bits.Invalid_width 4) (fun () ->
            ignore (Bits.sign_extend (Bits.zero 8) 4)));
    t "to_signed_int64" (fun () ->
        check_i64 "neg" (-1L) (Bits.to_signed_int64 (Bits.ones 8));
        check_i64 "pos" 127L (Bits.to_signed_int64 (Bits.of_int ~width:8 127)));
    t "split/concat words" (fun () ->
        let v = Bits.create ~width:64 0x1122334455667788L in
        let words = Bits.split_words v ~word:32 in
        check_int "count" 2 (List.length words);
        (match words with
        | [ hi; lo ] ->
            check_i64 "hi" 0x11223344L (Bits.to_int64 hi);
            check_i64 "lo" 0x55667788L (Bits.to_int64 lo)
        | _ -> Alcotest.fail "expected two words");
        check_i64 "roundtrip" 0x1122334455667788L
          (Bits.to_int64 (Bits.concat_words words)));
    t "one_hot" (fun () ->
        check_int "bit 3" 8 (Bits.to_int (Bits.one_hot ~width:8 3)));
    t "one_hot_to_index" (fun () ->
        Alcotest.(check (option int))
          "single" (Some 5)
          (Bits.one_hot_to_index (Bits.one_hot ~width:8 5));
        Alcotest.(check (option int))
          "zero" None
          (Bits.one_hot_to_index (Bits.zero 8));
        Alcotest.(check (option int))
          "two bits" None
          (Bits.one_hot_to_index (Bits.of_int ~width:8 0b101)));
    t "mul wraps" (fun () ->
        let a = Bits.of_int ~width:8 16 in
        check_int "16*16 mod 256" 0 (Bits.to_int (Bits.mul a a)));
    t "shift_left drops bits" (fun () ->
        check_int "shift" 0xF0 (Bits.to_int (Bits.shift_left (Bits.of_int ~width:8 0xFF) 4)));
    t "shift_right is logical" (fun () ->
        check_int "shift" 0x0F (Bits.to_int (Bits.shift_right (Bits.of_int ~width:8 0xFF) 4)));
    t "shift by >= 64 yields zero" (fun () ->
        check_bool "zero" true (Bits.is_zero (Bits.shift_left (Bits.ones 8) 64)));
    t "pp" (fun () ->
        check_str "pp" "8'hff" (Format.asprintf "%a" Bits.pp (Bits.ones 8)));
    t "of_int masks as create does, and shares values of at most 8 bits" (fun () ->
        for w = 1 to 12 do
          for v = -600 to 600 do
            let b = Bits.of_int ~width:w v in
            if not (Bits.equal b (Bits.create ~width:w (Int64.of_int v))) then
              Alcotest.failf "of_int ~width:%d %d" w v;
            check_bool
              (Printf.sprintf "of_int ~width:%d %d shared" w v)
              (w <= 8) (b == Bits.of_int ~width:w v)
          done
        done;
        check_bool "of_bool true" true (Bits.of_bool true == Bits.of_int ~width:1 1);
        check_bool "zero" true (Bits.zero 8 == Bits.of_int ~width:8 256);
        Alcotest.check_raises "width 0" (Bits.Invalid_width 0) (fun () ->
            ignore (Bits.of_int ~width:0 1)));
  ]

(* property tests *)

let gen_width = QCheck.Gen.int_range 1 64

let arb_bits =
  QCheck.make
    ~print:(fun b -> Format.asprintf "%a" Bits.pp b)
    QCheck.Gen.(
      gen_width >>= fun w ->
      map (fun v -> Bits.create ~width:w v) ui64)

let arb_pair_same_width =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a,%a" Bits.pp a Bits.pp b)
    QCheck.Gen.(
      gen_width >>= fun w ->
      map2
        (fun a b -> (Bits.create ~width:w a, Bits.create ~width:w b))
        ui64 ui64)

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arb f)

let property_tests =
  [
    prop "add commutes" arb_pair_same_width (fun (a, b) ->
        Bits.equal (Bits.add a b) (Bits.add b a));
    prop "add/sub inverse" arb_pair_same_width (fun (a, b) ->
        Bits.equal a (Bits.sub (Bits.add a b) b));
    prop "neg is 0 - x" arb_bits (fun a ->
        Bits.equal (Bits.neg a) (Bits.sub (Bits.zero (Bits.width a)) a));
    prop "lognot involutive" arb_bits (fun a ->
        Bits.equal a (Bits.lognot (Bits.lognot a)));
    prop "xor self is zero" arb_bits (fun a -> Bits.is_zero (Bits.logxor a a));
    prop "binary string roundtrip" arb_bits (fun a ->
        Bits.equal a (Bits.of_binary_string (Bits.to_binary_string a)));
    prop "split/concat roundtrip (word 8)" arb_bits (fun a ->
        Bits.width a mod 8 <> 0
        || Bits.equal a (Bits.concat_words (Bits.split_words a ~word:8)));
    prop "select concat identity" arb_pair_same_width (fun (a, b) ->
        Bits.width a + Bits.width b > 64
        ||
        let c = Bits.concat a b in
        Bits.equal b (Bits.select c ~hi:(Bits.width b - 1) ~lo:0)
        && Bits.equal a
             (Bits.select c ~hi:(Bits.width c - 1) ~lo:(Bits.width b)));
    prop "sign_extend preserves signed value" arb_bits (fun a ->
        Bits.width a > 63
        || Int64.equal (Bits.to_signed_int64 a)
             (Bits.to_signed_int64 (Bits.sign_extend a (Bits.width a + 1))));
    prop "to_signed then create roundtrip" arb_bits (fun a ->
        Bits.equal a (Bits.create ~width:(Bits.width a) (Bits.to_signed_int64 a)));
  ]

let tests = [ ("bits", unit_tests @ property_tests) ]
