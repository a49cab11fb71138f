type stats = {
  mutable registrations : int;
  mutable evictions : int;
  mutable tracked_shootdowns : int;
  mutable fallback_shootdowns : int;
}

(* Slots are parallel arrays, [ways] consecutive slots per set. A slot's
   sharer set is created on its first registration; until then it holds
   [no_sharers], which stays empty. *)
type t = {
  sets : int;
  ways : int;
  cores : int;
  tags : int array; (* VTE address, -1 = empty *)
  lru : int array;
  sharer_sets : Jord_util.Bitset.t array;
  no_sharers : Jord_util.Bitset.t;
  mutable tick : int;
  stats : stats;
}

let create ?(sets = 512) ?(ways = 8) ~cores () =
  if sets <= 0 || ways <= 0 then invalid_arg "Vtd.create";
  let no_sharers = Jord_util.Bitset.create cores in
  {
    sets;
    ways;
    cores;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    sharer_sets = Array.make (sets * ways) no_sharers;
    no_sharers;
    tick = 0;
    stats =
      { registrations = 0; evictions = 0; tracked_shootdowns = 0; fallback_shootdowns = 0 };
  }

let stats t = t.stats
let set_of t vte_addr = (vte_addr / Va.vte_bytes) mod t.sets

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

(* The sharer set of slot [i], created on first use. *)
let sharer_set t i =
  let s = t.sharer_sets.(i) in
  if s != t.no_sharers then s
  else begin
    let s = Jord_util.Bitset.create t.cores in
    t.sharer_sets.(i) <- s;
    s
  end

let note_read t ~vte_addr ~core =
  t.stats.registrations <- t.stats.registrations + 1;
  let i = find t vte_addr in
  if i >= 0 then begin
    Jord_util.Bitset.add (sharer_set t i) core;
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
    let s = sharer_set t i in
    Jord_util.Bitset.clear s;
    Jord_util.Bitset.add s core;
    touch t i
  end

let write_slot t ~vte_addr =
  let i = find t vte_addr in
  if i >= 0 then t.stats.tracked_shootdowns <- t.stats.tracked_shootdowns + 1
  else t.stats.fallback_shootdowns <- t.stats.fallback_shootdowns + 1;
  i

let sharers t i = t.sharer_sets.(i)

let note_write t ~vte_addr =
  let i = find t vte_addr in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    Jord_util.Bitset.clear t.sharer_sets.(i)
  end

let drop_core t ~vte_addr ~core =
  let i = find t vte_addr in
  if i >= 0 then Jord_util.Bitset.remove t.sharer_sets.(i) core

let tracked t = Array.fold_left (fun acc a -> if a <> -1 then acc + 1 else acc) 0 t.tags
