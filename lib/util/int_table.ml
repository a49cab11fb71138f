type 'a t = {
  mutable keys : int array; (* [free] marks an empty slot *)
  mutable vals : 'a array;
  mutable size : int;
  mutable shift : int; (* 63 - log2 (capacity) *)
  dummy : 'a;
}

let free = min_int

let create ?(size = 8) dummy =
  let cap = Bits.ceil_pow2 (Int.max 8 (2 * size)) in
  {
    keys = Array.make cap free;
    vals = Array.make cap dummy;
    size = 0;
    shift = 63 - Bits.log2_exact cap;
    dummy;
  }

(* Fibonacci hashing: the top bits of the key times an odd constant, so
   runs of consecutive keys (cache lines, table indices) spread out. *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

let find t k =
  if k = free then -1
  else begin
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (home t k) in
    while keys.(!i) <> k && keys.(!i) <> free do
      i := (!i + 1) land mask
    done;
    if keys.(!i) = k then !i else -1
  end

let value t i = t.vals.(i)
let set_value t i v = t.vals.(i) <- v

(* Probe for [k]'s insertion slot: the first free one on its run. *)
let slot_for t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while keys.(!i) <> free do
    if keys.(!i) = k then invalid_arg "Int_table.add: key present";
    i := (!i + 1) land mask
  done;
  !i

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap free;
  t.vals <- Array.make cap t.dummy;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> free then begin
      let j = slot_for t keys.(i) in
      t.keys.(j) <- keys.(i);
      t.vals.(j) <- vals.(i)
    end
  done

let add t k v =
  if k = free then invalid_arg "Int_table.add: reserved key";
  if 2 * (t.size + 1) > Array.length t.keys then grow t;
  let i = slot_for t k in
  t.keys.(i) <- k;
  t.vals.(i) <- v;
  t.size <- t.size + 1;
  i

let remove t k =
  let i = find t k in
  if i >= 0 then begin
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    (* Backward shift: pull each later entry of the run into the hole
       unless its home lies cyclically in (hole, j]. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while keys.(!j) <> free do
      let h = home t keys.(!j) in
      let stays = if !hole <= !j then h > !hole && h <= !j else h > !hole || h <= !j in
      if not stays then begin
        keys.(!hole) <- keys.(!j);
        vals.(!hole) <- vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    keys.(!hole) <- free;
    vals.(!hole) <- t.dummy;
    t.size <- t.size - 1
  end

let length t = t.size

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    if keys.(i) <> free then f keys.(i) t.vals.(i)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

