type t = { words : int array; capacity : int; mutable cardinal : int }

let create n =
  if n <= 0 then invalid_arg "Bitset.create";
  { words = Array.make (Bits.ceil_div n 62) 0; capacity = n; cardinal = 0 }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of range"

let mem t i =
  check t i;
  t.words.(i / 62) land (1 lsl (i mod 62)) <> 0

let add t i =
  check t i;
  let w = i / 62 and bit = 1 lsl (i mod 62) in
  let word = t.words.(w) in
  if word land bit = 0 then begin
    t.words.(w) <- word lor bit;
    t.cardinal <- t.cardinal + 1
  end

let remove t i =
  check t i;
  let w = i / 62 and bit = 1 lsl (i mod 62) in
  let word = t.words.(w) in
  if word land bit <> 0 then begin
    t.words.(w) <- word land lnot bit;
    t.cardinal <- t.cardinal - 1
  end

let is_empty t = t.cardinal = 0
let cardinal t = t.cardinal

let clear t =
  Array.fill t.words 0 (Array.length t.words) 0;
  t.cardinal <- 0

(* Index of the lowest set bit of a non-zero word (bits 0..61): de Bruijn
   multiplication on whichever 32-bit half holds it. *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let log2_32 b = Char.code debruijn32.[((b * 0x077CB531) land 0xFFFFFFFF) lsr 27]

let lowest_bit w =
  let b = w land -w in
  if b land 0xFFFFFFFF <> 0 then log2_32 b else 32 + log2_32 (b lsr 32)

let next_member t i =
  let i = Int.max i 0 in
  if i >= t.capacity then -1
  else begin
    let w = i / 62 in
    let word = t.words.(w) lsr (i mod 62) in
    if word <> 0 then i + lowest_bit word
    else begin
      let n = Array.length t.words in
      let w = ref (w + 1) in
      while !w < n && t.words.(!w) = 0 do
        incr w
      done;
      if !w = n then -1 else (!w * 62) + lowest_bit t.words.(!w)
    end
  end

let iter f t =
  let i = ref (next_member t 0) in
  while !i >= 0 do
    f !i;
    i := next_member t (!i + 1)
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold (fun acc i -> i :: acc) [] t)

let copy t =
  { words = Array.copy t.words; capacity = t.capacity; cardinal = t.cardinal }
