let add = Buffer.add_string

(* the decimal text of small non-negative integers (widths, indices, ids,
   counts), made once *)
let small_ints = Array.init 256 string_of_int

let add_int b i =
  add b (if i >= 0 && i < Array.length small_ints then small_ints.(i) else string_of_int i)

let blanks = String.make 64 ' '

let rec spaces b n =
  if n > String.length blanks then begin
    add b blanks;
    spaces b (n - String.length blanks)
  end
  else if n > 0 then Buffer.add_substring b blanks 0 n

let pad b n s =
  add b s;
  spaces b (n - String.length s)

let add_sep b sep f items =
  List.iteri
    (fun i x ->
      if i > 0 then add b sep;
      f x)
    items
