type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let make seed = { state = Int64.of_int seed }
let of_int64 state = { state }

let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix acc v = mix64 (Int64.add (Int64.mul acc gamma) v)

let mix_string acc s =
  String.fold_left (fun a c -> mix a (Int64.of_int (Char.code c))) acc s

let next t =
  t.state <- Int64.add t.state gamma;
  mix64 t.state

let int64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  Int64.to_int
    (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

let choose t = function
  | [] -> invalid_arg "Splitmix.choose: empty list"
  | l -> List.nth l (int t (List.length l))

let split t =
  let a = next t in
  let b = next t in
  ({ state = a }, { state = b })

let split_seed root i =
  if i = 0 then root
  else
    Int64.to_int
      (Int64.logand
         (mix64 (Int64.logxor (Int64.of_int root)
                   (Int64.mul gamma (Int64.of_int i))))
         (Int64.of_int max_int))
