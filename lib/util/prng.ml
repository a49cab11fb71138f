(* xoshiro256** over a 32-byte state: words s0..s3 at byte offsets 0, 8, 16
   and 24, read and written as unboxed int64s. Every store into a mutable
   int64 record field would box a fresh value, and under -opaque each draw
   is a real call into this module. So the one step [next] is inlined into
   each entry point, and only a raw [bits64] result and [float]'s return
   value are boxed. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64 step, used for seeding and for [split]. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 state)
  done;
  t

let create ~seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

let bits64 t = next t
let split t = of_splitmix (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Keep 62 bits so the value stays non-negative in OCaml's 63-bit int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  (* 53 uniform mantissa bits. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L
