(* Fixed-boundary log-bucket sketch: values 0..15 exactly, then 16 linear
   sub-buckets per octave. With 62 usable octaves above the exact range the
   ladder tops out at 16 + 59 * 16 buckets for any OCaml int; 960 slots
   cover every representable picosecond duration. *)

let sub = 16 (* sub-buckets per octave *)
let sub_log2 = 4
let bucket_count = 960

(* Position of the most significant set bit (v > 0), by halving: six
   fixed steps cover the 62 value bits of a positive int. *)
let msb v =
  let v = ref v and b = ref 0 in
  if !v lsr 32 <> 0 then begin
    v := !v lsr 32;
    b := 32
  end;
  if !v lsr 16 <> 0 then begin
    v := !v lsr 16;
    b := !b + 16
  end;
  if !v lsr 8 <> 0 then begin
    v := !v lsr 8;
    b := !b + 8
  end;
  if !v lsr 4 <> 0 then begin
    v := !v lsr 4;
    b := !b + 4
  end;
  if !v lsr 2 <> 0 then begin
    v := !v lsr 2;
    b := !b + 2
  end;
  if !v lsr 1 <> 0 then !b + 1 else !b

let bucket_index v =
  if v < sub then v
  else
    let b = msb v in
    let top = v lsr (b - sub_log2) in
    (* top is in [16, 32): octave group (b - 3) shifted by the sub-bucket. *)
    ((b - sub_log2 + 1) * sub) + top - sub

let bucket_upper i =
  if i < sub then i
  else
    let g = i lsr sub_log2 in
    let b = g + sub_log2 - 1 in
    let top = (i land (sub - 1)) + sub in
    ((top + 1) lsl (b - sub_log2)) - 1

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  (* Exemplar slot: the id attached to the largest observation seen (ties
     broken toward the smallest id), so merges stay order-independent. *)
  mutable ex_v : int;
  mutable ex_id : int;
}

let create () =
  {
    buckets = Array.make bucket_count 0;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = -1;
    ex_v = -1;
    ex_id = -1;
  }

let add t v =
  if v < 0 then invalid_arg "Sketch.add: negative observation";
  let i = bucket_index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let note_exemplar t v ~ex =
  if ex >= 0 && (v > t.ex_v || (v = t.ex_v && ex < t.ex_id)) then begin
    t.ex_v <- v;
    t.ex_id <- ex
  end

let add_ex t v ~ex =
  add t v;
  note_exemplar t v ~ex

let exemplar t = if t.ex_id < 0 then None else Some (t.ex_v, t.ex_id)

let count t = t.count
let sum t = t.sum
let is_empty t = t.count = 0
let min_v t = if t.count = 0 then 0 else t.min_v
let max_v t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let merge_into ~into src =
  for i = 0 to bucket_count - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v;
  if src.ex_id >= 0 then note_exemplar into src.ex_v ~ex:src.ex_id

let merge a b =
  let t = create () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let copy t =
  {
    buckets = Array.copy t.buckets;
    count = t.count;
    sum = t.sum;
    min_v = t.min_v;
    max_v = t.max_v;
    ex_v = t.ex_v;
    ex_id = t.ex_id;
  }

let quantile t q =
  if q < 0.0 || q > 100.0 then invalid_arg "Sketch.quantile";
  if t.count = 0 then 0
  else begin
    let rank = Int.max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int t.count))) in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank && !i < bucket_count do
      seen := !seen + t.buckets.(!i);
      incr i
    done;
    (* !i is one past the bucket that reached the rank. *)
    Int.max t.min_v (Int.min t.max_v (bucket_upper (!i - 1)))
  end

let equal a b =
  a.count = b.count && a.sum = b.sum
  && min_v a = min_v b && max_v a = max_v b
  && a.ex_v = b.ex_v && a.ex_id = b.ex_id
  && a.buckets = b.buckets

let quantile_of_buckets buckets q =
  if q < 0.0 || q > 100.0 then invalid_arg "Sketch.quantile_of_buckets";
  let total =
    List.fold_left (fun acc (_, c) -> Int.max acc c) 0 buckets
  in
  if total = 0 then 0.0
  else begin
    let rank = Int.max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int total))) in
    let last_finite =
      List.fold_left
        (fun acc (ub, _) -> if Float.is_finite ub then ub else acc)
        0.0 buckets
    in
    let rec pick = function
      | [] -> last_finite
      | (ub, cum) :: rest ->
          if cum >= rank then if Float.is_finite ub then ub else last_finite
          else pick rest
    in
    pick buckets
  end
