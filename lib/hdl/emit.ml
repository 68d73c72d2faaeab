let add = Buffer.add_string

(* the decimal text of small non-negative integers (widths, indices, ids,
   counts), made once *)
let small_ints = Array.init 256 string_of_int

(* the digits of [-n] for [n <= 0]: working on the non-positive side
   covers [min_int], whose negation overflows *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i >= 0 && i < Array.length small_ints then add b small_ints.(i)
  else begin
    if i < 0 then Buffer.add_char b '-';
    add_digits b (if i < 0 then i else -i)
  end

let int_to_string i =
  if i >= 0 && i < Array.length small_ints then small_ints.(i)
  else begin
    let b = Buffer.create 20 in
    add_int b i;
    Buffer.contents b
  end

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

(* Each domain keeps one render buffer, lent to one render at a time: a
   render that starts while it is out (a render inside a render) gets a
   buffer of its own. Kept across files, the buffer stops growing once it
   holds the largest file; one that grew past [cap] goes back to its
   initial size so a rare large file does not stay resident. *)
let initial = 4096
let cap = 1 lsl 18
let lent = Domain.DLS.new_key (fun () -> ref (Some (Buffer.create initial)))

let give_back slot b =
  if Buffer.length b > cap then Buffer.reset b else Buffer.clear b;
  slot := Some b

let render f =
  let slot = Domain.DLS.get lent in
  match !slot with
  | None ->
      let b = Buffer.create initial in
      f b;
      Buffer.contents b
  | Some b -> (
      slot := None;
      match f b with
      | () ->
          let s = Buffer.contents b in
          give_back slot b;
          s
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          give_back slot b;
          Printexc.raise_with_backtrace e bt)
