type t = { w : int; v : int64 }

exception Width_mismatch of string
exception Invalid_width of int

let max_width = 64

(* [mask] sits on the hottest path of every signal commit (every [create]
   runs it), so the 64 shift/sub results are precomputed once into an
   immutable table instead of recomputed per call *)
let mask_table =
  Array.init 64 (fun w -> Int64.sub (Int64.shift_left 1L w) 1L)

let mask w = if w >= 64 then -1L else Array.get mask_table w

let check_width w = if w < 1 || w > max_width then raise (Invalid_width w)

let create ~width v =
  check_width width;
  { w = width; v = Int64.logand v (mask width) }

(* values are immutable, so the zero of every width and every value of
   at most [small_width] bits are shared constants: the simulation's
   per-cycle defaults, and the 1-bit and byte values a narrow signal
   rebuilds, never allocate *)
let zeros = Array.init max_width (fun i -> { w = i + 1; v = 0L })

let small_width = 8

(* the values of width [w] sit at [(1 lsl w) + v], so [w] and [v] select
   one entry with one load; the first two slots are unused *)
let smalls =
  let a = Array.make (1 lsl (small_width + 1)) zeros.(0) in
  for w = 1 to small_width do
    for v = 0 to (1 lsl w) - 1 do
      a.((1 lsl w) + v) <- (if v = 0 then zeros.(w - 1) else { w; v = Int64.of_int v })
    done
  done;
  a

let of_int ~width v =
  if width >= 1 && width <= small_width then
    Array.unsafe_get smalls ((1 lsl width) lor (v land ((1 lsl width) - 1)))
  else create ~width (Int64.of_int v)

let zero w =
  check_width w;
  Array.unsafe_get zeros (w - 1)

let one w = create ~width:w 1L
let ones w = create ~width:w (-1L)
let b_false = zero 1
let b_true = of_int ~width:1 1
let of_bool b = if b then b_true else b_false

let of_binary_string s =
  let bits = ref [] in
  String.iter
    (fun c ->
      match c with
      | '0' -> bits := false :: !bits
      | '1' -> bits := true :: !bits
      | '_' -> ()
      | c -> invalid_arg (Printf.sprintf "Bits.of_binary_string: bad char %c" c))
    s;
  let bits = List.rev !bits in
  let w = List.length bits in
  if w = 0 then invalid_arg "Bits.of_binary_string: empty";
  check_width w;
  let v =
    List.fold_left
      (fun acc b -> Int64.logor (Int64.shift_left acc 1) (if b then 1L else 0L))
      0L bits
  in
  create ~width:w v

let width t = t.w
let to_int64 t = t.v

let to_int t =
  if Int64.compare t.v (Int64.of_int max_int) > 0 || Int64.compare t.v 0L < 0
  then failwith "Bits.to_int: does not fit"
  else Int64.to_int t.v

let to_signed_int64 t =
  if t.w = 64 then t.v
  else if Int64.logand t.v (Int64.shift_left 1L (t.w - 1)) <> 0L then
    Int64.logor t.v (Int64.lognot (mask t.w))
  else t.v

let to_bool t = t.v <> 0L
let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bits.bit: out of range";
  Int64.logand (Int64.shift_right_logical t.v i) 1L = 1L

let is_zero t = t.v = 0L
let equal a b = a.w = b.w && a.v = b.v

let compare a b =
  let c = Stdlib.compare a.w b.w in
  if c <> 0 then c
  else
    (* unsigned comparison of the payloads *)
    Int64.unsigned_compare a.v b.v

let same_width op a b =
  if a.w <> b.w then
    raise
      (Width_mismatch (Printf.sprintf "Bits.%s: %d vs %d" op a.w b.w))

let add a b = same_width "add" a b; create ~width:a.w (Int64.add a.v b.v)
let sub a b = same_width "sub" a b; create ~width:a.w (Int64.sub a.v b.v)
let mul a b = same_width "mul" a b; create ~width:a.w (Int64.mul a.v b.v)
let succ a = create ~width:a.w (Int64.add a.v 1L)
let neg a = create ~width:a.w (Int64.neg a.v)
let logand a b = same_width "logand" a b; { a with v = Int64.logand a.v b.v }
let logor a b = same_width "logor" a b; { a with v = Int64.logor a.v b.v }
let logxor a b = same_width "logxor" a b; { a with v = Int64.logxor a.v b.v }
let lognot a = create ~width:a.w (Int64.lognot a.v)

let shift_left a n =
  if n < 0 then invalid_arg "Bits.shift_left: negative";
  if n >= 64 then zero a.w else create ~width:a.w (Int64.shift_left a.v n)

let shift_right a n =
  if n < 0 then invalid_arg "Bits.shift_right: negative";
  if n >= 64 then zero a.w
  else create ~width:a.w (Int64.shift_right_logical a.v n)

let lt a b = same_width "lt" a b; Int64.unsigned_compare a.v b.v < 0
let le a b = same_width "le" a b; Int64.unsigned_compare a.v b.v <= 0
let gt a b = same_width "gt" a b; Int64.unsigned_compare a.v b.v > 0
let ge a b = same_width "ge" a b; Int64.unsigned_compare a.v b.v >= 0

let concat hi lo =
  let w = hi.w + lo.w in
  if w > max_width then raise (Invalid_width w);
  { w; v = Int64.logor (Int64.shift_left hi.v lo.w) lo.v }

let select t ~hi ~lo =
  if lo < 0 || hi >= t.w || hi < lo then
    invalid_arg
      (Printf.sprintf "Bits.select: [%d:%d] of width %d" hi lo t.w);
  create ~width:(hi - lo + 1) (Int64.shift_right_logical t.v lo)

let set_bit t i b =
  if i < 0 || i >= t.w then invalid_arg "Bits.set_bit: out of range";
  let m = Int64.shift_left 1L i in
  let v = if b then Int64.logor t.v m else Int64.logand t.v (Int64.lognot m) in
  { t with v }

let resize t w = create ~width:w t.v

let sign_extend t w =
  if w < t.w then raise (Invalid_width w);
  create ~width:w (to_signed_int64 t)

let split_words t ~word =
  if word < 1 then invalid_arg "Bits.split_words: word < 1";
  let rec go lo acc =
    if lo >= t.w then acc
    else
      let hi = min (lo + word - 1) (t.w - 1) in
      go (hi + 1) (select t ~hi ~lo :: acc)
  in
  go 0 []

let concat_words = function
  | [] -> invalid_arg "Bits.concat_words: empty"
  | x :: xs -> List.fold_left concat x xs

let one_hot ~width i =
  check_width width;
  if i < 0 || i >= width then invalid_arg "Bits.one_hot: out of range";
  create ~width (Int64.shift_left 1L i)

let one_hot_to_index t =
  if t.v = 0L then None
  else if Int64.logand t.v (Int64.sub t.v 1L) <> 0L then None
  else
    let rec go i = if bit t i then Some i else go (i + 1) in
    go 0

let to_binary_string t =
  String.init t.w (fun i -> if bit t (t.w - 1 - i) then '1' else '0')

let to_hex_string t = Printf.sprintf "%Lx" t.v
let pp fmt t = Format.fprintf fmt "%d'h%s" t.w (to_hex_string t)
