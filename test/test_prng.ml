open Jord_util

let test_deterministic () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 20 do
    Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_split_independent () =
  let a = Prng.create ~seed:9 in
  let b = Prng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr matches
  done;
  Alcotest.(check bool) "split stream distinct" true (!matches < 4)

let test_int_bounds () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_float_bounds () =
  let p = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.float p 3.0 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.0)
  done

let test_uniformity () =
  (* Chi-square-ish sanity: all 16 buckets populated within 3x of each
     other over 32k draws. *)
  let p = Prng.create ~seed:11 in
  let buckets = Array.make 16 0 in
  for _ = 1 to 32_768 do
    let b = Prng.int p 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let mn = Array.fold_left Int.min max_int buckets in
  let mx = Array.fold_left Int.max 0 buckets in
  Alcotest.(check bool)
    (Printf.sprintf "bucket spread min=%d max=%d" mn mx)
    true
    (mn > 1500 && mx < 2700)

(* --- the unboxed state against known answers and a reference model --- *)

let test_known_answers () =
  (* xoshiro256** seeded through SplitMix64, first four outputs; an
     independent implementation of both reference algorithms gives the
     same values. *)
  let stream seed = let p = Prng.create ~seed in List.init 4 (fun _ -> Prng.bits64 p) in
  Alcotest.(check (list int64)) "seed 0"
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
      7684712102626143532L ]
    (stream 0);
  Alcotest.(check (list int64)) "seed 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
      -1389169964527427423L ]
    (stream 42)

(* The model: xoshiro256** with its four words in mutable int64 record
   fields, the straightforward transcription of the reference code. *)
module Model = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let of_state state =
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let create ~seed = of_state (ref (Int64.of_int seed))
  let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }
  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t = of_state (ref (bits64 t))
  let int t bound = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) mod bound

  let float t bound =
    float_of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11))
    /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (bits64 t) 1L = 1L
end

(* Each op names a live generator by index (mod the live count); [Copy]
   and [Split] add one. *)
type op = Bits64 of int | Int of int * int | Float of int * float | Bool of int | Copy of int | Split of int

let show_op = function
  | Bits64 i -> Printf.sprintf "bits64 %d" i
  | Int (i, b) -> Printf.sprintf "int %d %d" i b
  | Float (i, b) -> Printf.sprintf "float %d %h" i b
  | Bool i -> Printf.sprintf "bool %d" i
  | Copy i -> Printf.sprintf "copy %d" i
  | Split i -> Printf.sprintf "split %d" i

let arb_stream =
  let open QCheck.Gen in
  let g = int_bound 7 in
  let op =
    frequency
      [
        (4, map (fun i -> Bits64 i) g);
        (4, map2 (fun i b -> Int (i, b)) g (oneof [ int_range 1 100; int_range 1 max_int ]));
        (4, map2 (fun i b -> Float (i, b)) g (float_bound_inclusive 1e9));
        (3, map (fun i -> Bool i) g);
        (1, map (fun i -> Copy i) g);
        (1, map (fun i -> Split i) g);
      ]
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map show_op ops)))
    (pair int (list_size (int_range 1 200) op))

let prop_matches_model =
  QCheck.Test.make ~name:"prng: unboxed state draws what the record-of-int64 model draws"
    ~count:300 arb_stream (fun (seed, ops) ->
      let live = ref [| (Model.create ~seed, Prng.create ~seed) |] in
      let at i = !live.(i mod Array.length !live) in
      let add g = live := Array.append !live [| g |] in
      List.for_all
        (fun op ->
          match op with
          | Bits64 i -> let m, p = at i in Model.bits64 m = Prng.bits64 p
          | Int (i, b) -> let m, p = at i in Model.int m b = Prng.int p b
          | Float (i, b) ->
              let m, p = at i in
              Int64.bits_of_float (Model.float m b) = Int64.bits_of_float (Prng.float p b)
          | Bool i -> let m, p = at i in Model.bool m = Prng.bool p
          | Copy i -> let m, p = at i in add (Model.copy m, Prng.copy p); true
          | Split i -> let m, p = at i in add (Model.split m, Prng.split p); true)
        ops)

let test_int_allocates_nothing () =
  (* The simulators draw on every request; a draw must not box its state. *)
  let p = Prng.create ~seed:3 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Prng.int p 1000
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words for 10k draws (sum %d)" !acc)
    0.0 words

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "uniformity" `Quick test_uniformity;
    Alcotest.test_case "known-answer streams" `Quick test_known_answers;
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "int draws allocate nothing" `Quick test_int_allocates_nothing;
  ]
