let words_for n =
  if n <= 0 then invalid_arg "Bitset.words_for";
  Bits.ceil_div n 62

let check i = if i < 0 then invalid_arg "Bitset: out of range"

let add words base i =
  check i;
  let w = base + (i / 62) in
  words.(w) <- words.(w) lor (1 lsl (i mod 62))

let remove words base i =
  check i;
  let w = base + (i / 62) in
  words.(w) <- words.(w) land lnot (1 lsl (i mod 62))

let mem words base i =
  check i;
  words.(base + (i / 62)) land (1 lsl (i mod 62)) <> 0

let rec is_empty (words : int array) base n =
  n = 0 || (words.(base) = 0 && is_empty words (base + 1) (n - 1))

let clear words base n = Array.fill words base n 0

(* Index of the lowest set bit of a non-zero word (bits 0..61): de Bruijn
   multiplication on whichever 32-bit half holds it. *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] log2_32 b = Char.code debruijn32.[((b * 0x077CB531) land 0xFFFFFFFF) lsr 27]

let[@inline] lowest_bit w =
  let b = w land -w in
  if b land 0xFFFFFFFF <> 0 then log2_32 b else 32 + log2_32 (b lsr 32)

let member_at k w = (k * 62) + lowest_bit w

(* The first non-zero word of [words.(w .. stop - 1)], or [stop]. *)
let rec nonzero_from (words : int array) w stop =
  if w = stop || words.(w) <> 0 then w else nonzero_from words (w + 1) stop

let next_member words base n i =
  let i = Int.max i 0 in
  let w = i / 62 in
  if w >= n then -1
  else begin
    let word = words.(base + w) lsr (i mod 62) in
    if word <> 0 then i + lowest_bit word
    else begin
      let stop = base + n in
      let w = nonzero_from words (base + w + 1) stop in
      if w = stop then -1 else member_at (w - base) words.(w)
    end
  end
