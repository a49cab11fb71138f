(* A way is empty exactly when its tag is -1: every path that invalidates a
   way also clears its tag, so a probe compares tags only. *)
type t = {
  sets : int;
  ways : int;
  set_mask : int; (* sets - 1 *)
  tags : int array; (* line index, or -1 when the way is empty *)
  states : Mesi.t array;
  lru : int array; (* bigger = more recently used *)
  mutable tick : int;
  mutable valid : int;
}

let create ~size ~ways ~line =
  if size <= 0 || ways <= 0 || line <= 0 then invalid_arg "Cache.create";
  let lines = size / line in
  if lines mod ways <> 0 then invalid_arg "Cache.create: lines not divisible by ways";
  let sets = lines / ways in
  if not (Jord_util.Bits.is_power_of_two sets) then
    invalid_arg "Cache.create: sets not a power of two";
  {
    sets;
    ways;
    set_mask = sets - 1;
    tags = Array.make lines (-1);
    states = Array.make lines Mesi.Invalid;
    lru = Array.make lines 0;
    tick = 0;
    valid = 0;
  }

let sets t = t.sets
let ways t = t.ways
let set_of t line = abs line land t.set_mask

(* Slot of [line] among ways [i, stop), or -1; a toplevel function, not a
   local closure, so that a probe allocates nothing. *)
let rec find_in (tags : int array) line i stop =
  if i = stop then -1 else if tags.(i) = line then i else find_in tags line (i + 1) stop

let peek t line =
  let base = set_of t line * t.ways in
  find_in t.tags line base (base + t.ways)

let touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

let lookup t line =
  let i = peek t line in
  if i >= 0 then touch t i;
  i

let state t i = t.states.(i)

let set_state t i state =
  if state = Mesi.Invalid then begin
    t.tags.(i) <- -1;
    t.valid <- t.valid - 1
  end;
  t.states.(i) <- state

(* Prefer the first empty way; otherwise evict the least recently used. *)
let victim_way t set =
  let best = ref (-1) and best_lru = ref max_int and empty = ref (-1) in
  for i = set * t.ways to ((set + 1) * t.ways) - 1 do
    if t.tags.(i) = -1 then (if !empty < 0 then empty := i)
    else if t.lru.(i) < !best_lru then begin
      best := i;
      best_lru := t.lru.(i)
    end
  done;
  if !empty >= 0 then !empty else !best

let insert t line state =
  if state = Mesi.Invalid then invalid_arg "Cache.insert: Invalid";
  let i = peek t line in
  if i >= 0 then begin
    t.states.(i) <- state;
    touch t i;
    -1
  end
  else begin
    let i = victim_way t (set_of t line) in
    let evicted = t.tags.(i) in
    if evicted = -1 then t.valid <- t.valid + 1;
    t.tags.(i) <- line;
    t.states.(i) <- state;
    touch t i;
    evicted
  end

let invalidate t line =
  let i = peek t line in
  if i >= 0 then begin
    t.tags.(i) <- -1;
    t.states.(i) <- Mesi.Invalid;
    t.valid <- t.valid - 1;
    true
  end
  else false

let count_valid t = t.valid

let clear t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.states 0 (Array.length t.states) Mesi.Invalid;
  Array.fill t.lru 0 (Array.length t.lru) 0;
  t.tick <- 0;
  t.valid <- 0
