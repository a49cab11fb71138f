type stats = { mutable hits : int; mutable misses : int; mutable shootdowns : int }

(* Entries are parallel arrays. An entry caches its VTE's range as
   [lo, hi); an empty entry has tag [empty], the empty range and [vacant]. *)
type t = {
  tags : int array; (* backing VTE address, or [empty] *)
  lo : int array;
  hi : int array;
  vtes : Vte.t array;
  lru : int array;
  vacant : Vte.t;
  mutable tick : int;
  stats : stats;
}

let empty = min_int

let create ~entries =
  if entries <= 0 then invalid_arg "Vlb.create";
  let vacant = Vte.vacant () in
  {
    tags = Array.make entries empty;
    lo = Array.make entries 0;
    hi = Array.make entries 0;
    vtes = Array.make entries vacant;
    lru = Array.make entries 0;
    vacant;
    tick = 0;
    stats = { hits = 0; misses = 0; shootdowns = 0 };
  }

let capacity t = Array.length t.vtes
let stats t = t.stats

let touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

(* Probe loops are toplevel functions, not local closures, so that a probe
   allocates nothing. *)
let rec covering t va i =
  if i = Array.length t.lo then -1
  else if va >= t.lo.(i) && va < t.hi.(i) then i
  else covering t va (i + 1)

let lookup t ~va =
  let i = covering t va 0 in
  if i >= 0 then begin
    t.stats.hits <- t.stats.hits + 1;
    touch t i
  end
  else t.stats.misses <- t.stats.misses + 1;
  i

let vte t i = t.vtes.(i)
let occupied t i = t.tags.(i) <> empty

let rec tagged (tags : int array) vte_addr i =
  if i = Array.length tags then -1
  else if tags.(i) = vte_addr then i
  else tagged tags vte_addr (i + 1)

let find_slot t ~vte_addr = if vte_addr = empty then -1 else tagged t.tags vte_addr 0

let clear_entry t i =
  t.tags.(i) <- empty;
  t.vtes.(i) <- t.vacant;
  t.lo.(i) <- 0;
  t.hi.(i) <- 0

let fill t ~vte_addr vte =
  let i = find_slot t ~vte_addr in
  let i =
    if i >= 0 then i
    else begin
      (* Pick the first empty entry, else the LRU victim. *)
      let n = Array.length t.vtes in
      let victim = ref (-1) and victim_lru = ref max_int in
      let i = ref 0 in
      while !i < n do
        if not (occupied t !i) then begin
          victim := !i;
          i := n
        end
        else begin
          if t.lru.(!i) < !victim_lru then begin
            victim := !i;
            victim_lru := t.lru.(!i)
          end;
          incr i
        end
      done;
      !victim
    end
  in
  t.tags.(i) <- vte_addr;
  t.vtes.(i) <- vte;
  t.lo.(i) <- Vte.base vte;
  t.hi.(i) <- Vte.base vte + Vte.bytes vte;
  touch t i

let invalidate_vte t ~vte_addr =
  let i = find_slot t ~vte_addr in
  if i >= 0 then begin
    clear_entry t i;
    t.stats.shootdowns <- t.stats.shootdowns + 1;
    true
  end
  else false

let invalidate_all t =
  for i = 0 to capacity t - 1 do
    clear_entry t i
  done

let contains_vte t ~vte_addr = find_slot t ~vte_addr >= 0

let occupancy t =
  let n = ref 0 in
  for i = 0 to capacity t - 1 do
    if occupied t i then incr n
  done;
  !n
