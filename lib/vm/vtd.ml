module Bitset = Jord_util.Bitset

type stats = {
  mutable registrations : int;
  mutable evictions : int;
  mutable tracked_shootdowns : int;
  mutable fallback_shootdowns : int;
}

(* Slots are parallel arrays, [ways] consecutive slots per set; slot [i]'s
   sharer set is the [words] words of [sharers] from [i * words]. *)
type t = {
  sets : int;
  ways : int;
  cores : int;
  words : int;
  tags : int array; (* VTE address, -1 = empty *)
  lru : int array;
  sharers : int array;
  mutable tick : int;
  stats : stats;
}

let create ?(sets = 512) ?(ways = 8) ~cores () =
  if sets <= 0 || ways <= 0 then invalid_arg "Vtd.create";
  let words = Bitset.words_for cores in
  {
    sets;
    ways;
    cores;
    words;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    sharers = Array.make (sets * ways * words) 0;
    tick = 0;
    stats =
      { registrations = 0; evictions = 0; tracked_shootdowns = 0; fallback_shootdowns = 0 };
  }

let stats t = t.stats
let set_of t vte_addr = (vte_addr / Va.vte_bytes) mod t.sets

let check_core t core =
  if core < 0 || core >= t.cores then invalid_arg "Vtd: core out of range"

(* Slot tracking [vte_addr], or -1; a toplevel loop, not a local closure,
   so that a probe allocates nothing. *)
let rec slot_in (tags : int array) vte_addr i stop =
  if i = stop then -1
  else if tags.(i) = vte_addr then i
  else slot_in tags vte_addr (i + 1) stop

let find t vte_addr =
  let base = set_of t vte_addr * t.ways in
  slot_in t.tags vte_addr base (base + t.ways)

let touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

let note_read t ~vte_addr ~core =
  check_core t core;
  t.stats.registrations <- t.stats.registrations + 1;
  let i = find t vte_addr in
  if i >= 0 then begin
    Bitset.add t.sharers (i * t.words) core;
    touch t i
  end
  else begin
    (* Empty way if any, else LRU victim (its sharers become untracked). *)
    let base = set_of t vte_addr * t.ways in
    let victim = ref base and victim_lru = ref max_int in
    let w = ref 0 in
    while !w < t.ways do
      let i = base + !w in
      if t.tags.(i) = -1 then begin
        victim := i;
        w := t.ways
      end
      else begin
        if t.lru.(i) < !victim_lru then begin
          victim := i;
          victim_lru := t.lru.(i)
        end;
        incr w
      end
    done;
    let i = !victim in
    if t.tags.(i) <> -1 then t.stats.evictions <- t.stats.evictions + 1;
    t.tags.(i) <- vte_addr;
    Bitset.clear t.sharers (i * t.words) t.words;
    Bitset.add t.sharers (i * t.words) core;
    touch t i
  end

let write_slot t ~vte_addr =
  let i = find t vte_addr in
  if i >= 0 then t.stats.tracked_shootdowns <- t.stats.tracked_shootdowns + 1
  else t.stats.fallback_shootdowns <- t.stats.fallback_shootdowns + 1;
  i

let next_sharer t i core = Bitset.next_member t.sharers (i * t.words) t.words core

let note_write t ~vte_addr =
  let i = find t vte_addr in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    Bitset.clear t.sharers (i * t.words) t.words
  end

let drop_core t ~vte_addr ~core =
  check_core t core;
  let i = find t vte_addr in
  if i >= 0 then Bitset.remove t.sharers (i * t.words) core

let tracked t = Array.fold_left (fun acc a -> if a <> -1 then acc + 1 else acc) 0 t.tags
