(* Indexed binary min-heap over (time, sched, seq) with stable handles,
   beside two handle-less FIFO lanes.

   The heap is a structure of arrays — times, scheds, seqs and slot ids in
   parallel int arrays — so pushing an event allocates nothing once the
   backing arrays are warm. Payloads live in a side table indexed by slot
   id; a handle packs the slot id with the slot's generation so a handle
   held across the event's pop (or a cancel) goes stale instead of touching
   a recycled slot. pos_of maps slot id -> current heap position, which is
   what makes cancel and reschedule O(log n) instead of a scan.

   [sched] is the instant the event was scheduled at and [seq] packs its
   source id above a push counter, so same-time events go by scheduling
   instant, then source, then push order. A queue fed in time order by one
   source is therefore plain FIFO among equal times. Arrivals carry
   [sched = min_int] and a counter of their own, so they sort ahead of
   every other event at the same time and in FIFO order among themselves.

   The lanes hold the events nobody cancels or moves — arrivals and wire
   hops — and those are mostly pushed in the order they fire: a hop one
   constant latency ahead of a nondecreasing clock. A lane is a ring kept
   sorted by the same key: a push whose key sorts after the lane's tail is
   appended, any other push goes into the heap under that key. A pop takes
   the least of the heap top and the two lane heads, so events leave in
   exactly the order one heap holding them all would give; the lanes only
   spare the in-order majority its sifts. *)

type handle = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let none_handle = -1

(* seq = src lsl counter_bits lor counter: 2^20 sources, 2^42 pushes. *)
let counter_bits = 42
let max_src = (1 lsl (62 - counter_bits)) - 1

(* A lane: a ring of (time, sched, seq, payload) in ascending key order
   from [head]; its capacity is 0 or a power of two. *)
type 'a lane = {
  mutable l_times : int array;
  mutable l_scheds : int array;
  mutable l_seqs : int array;
  mutable l_vals : 'a array;
  mutable head : int;
  mutable len : int;
}

type 'a t = {
  (* Heap order: position i holds (times.(i), scheds.(i), seqs.(i),
     slots.(i)). *)
  mutable times : int array;
  mutable scheds : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable next_arrival_seq : int;
  (* Slot tables, indexed by slot id < slots_used. *)
  mutable payloads : 'a array; (* [||] until the first push *)
  mutable gens : int array;
  mutable pos_of : int array; (* -1 when the slot is free *)
  mutable free : int array; (* stack of recycled slot ids *)
  mutable free_top : int;
  mutable slots_used : int;
  mutable dummy : 'a option; (* slot filler so popped payloads can be GC'd *)
  arrivals : 'a lane;
  hops : 'a lane;
  (* The event the last pop returned. *)
  mutable popped_time : int;
  mutable popped_src : int;
}

let create_lane () =
  { l_times = [||]; l_scheds = [||]; l_seqs = [||]; l_vals = [||]; head = 0; len = 0 }

let create () =
  {
    times = [||];
    scheds = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
    next_arrival_seq = 0;
    payloads = [||];
    gens = [||];
    pos_of = [||];
    free = [||];
    free_top = 0;
    slots_used = 0;
    dummy = None;
    arrivals = create_lane ();
    hops = create_lane ();
    popped_time = 0;
    popped_src = 0;
  }

let is_empty t = t.size = 0 && t.arrivals.len = 0 && t.hops.len = 0
let length t = t.size + t.arrivals.len + t.hops.len

(* (time1, sched1, seq1) sorts before (time2, sched2, seq2). The [int]
   annotations keep the polymorphic compare out. *)
let[@inline] key_less (time1 : int) (sched1 : int) (seq1 : int) (time2 : int)
    (sched2 : int) (seq2 : int) =
  time1 < time2 || (time1 = time2 && (sched1 < sched2 || (sched1 = sched2 && seq1 < seq2)))

let less t i j =
  t.times.(i) < t.times.(j)
  || t.times.(i) = t.times.(j)
     && (t.scheds.(i) < t.scheds.(j)
        || (t.scheds.(i) = t.scheds.(j) && t.seqs.(i) < t.seqs.(j)))

(* Overwrite heap position [dst] with the entry at [src]. *)
let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.scheds.(dst) <- t.scheds.(src);
  t.seqs.(dst) <- t.seqs.(src);
  let s = t.slots.(src) in
  t.slots.(dst) <- s;
  t.pos_of.(s) <- dst

let swap t i j =
  let time = t.times.(i) and sched = t.scheds.(i) and seq = t.seqs.(i) in
  let slot = t.slots.(i) in
  move t ~src:j ~dst:i;
  t.times.(j) <- time;
  t.scheds.(j) <- sched;
  t.seqs.(j) <- seq;
  t.slots.(j) <- slot;
  t.pos_of.(slot) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow_int_array a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_heap_capacity t =
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = Int.max 16 (cap * 2) in
    t.times <- grow_int_array t.times ncap;
    t.scheds <- grow_int_array t.scheds ncap;
    t.seqs <- grow_int_array t.seqs ncap;
    t.slots <- grow_int_array t.slots ncap
  end

let ensure_slot_capacity t filler =
  let cap = Array.length t.gens in
  if t.slots_used = cap then begin
    let ncap = Int.max 16 (cap * 2) in
    if ncap > slot_mask + 1 then invalid_arg "Event_queue: too many pending events";
    let payloads = Array.make ncap filler in
    Array.blit t.payloads 0 payloads 0 t.slots_used;
    t.payloads <- payloads;
    t.gens <- grow_int_array t.gens ncap;
    let pos_of = Array.make ncap (-1) in
    Array.blit t.pos_of 0 pos_of 0 t.slots_used;
    t.pos_of <- pos_of;
    t.free <- grow_int_array t.free ncap
  end

let alloc_slot t v =
  if t.free_top > 0 then begin
    t.free_top <- t.free_top - 1;
    let s = t.free.(t.free_top) in
    t.payloads.(s) <- v;
    s
  end
  else begin
    ensure_slot_capacity t v;
    let s = t.slots_used in
    t.slots_used <- s + 1;
    t.payloads.(s) <- v;
    s
  end

let free_slot t s =
  t.gens.(s) <- t.gens.(s) + 1;
  t.pos_of.(s) <- (-1);
  (match t.dummy with Some d -> t.payloads.(s) <- d | None -> ());
  t.free.(t.free_top) <- s;
  t.free_top <- t.free_top + 1

let set_dummy t v = match t.dummy with None -> t.dummy <- Some v | Some _ -> ()

let push_seq t ~time ~sched ~seq v =
  set_dummy t v;
  ensure_heap_capacity t;
  let s = alloc_slot t v in
  let i = t.size in
  t.size <- i + 1;
  t.times.(i) <- time;
  t.scheds.(i) <- sched;
  t.seqs.(i) <- seq;
  t.slots.(i) <- s;
  t.pos_of.(s) <- i;
  sift_up t i;
  s lor (t.gens.(s) lsl slot_bits)

let fresh_seq t ~src =
  if src < 0 || src > max_src then invalid_arg "Event_queue: src out of range";
  let n = t.next_seq in
  t.next_seq <- n + 1;
  (src lsl counter_bits) lor n

let push_from t ~time ~sched ~src v = push_seq t ~time ~sched ~seq:(fresh_seq t ~src) v
let push t ~time v = push_from t ~time ~sched:0 ~src:0 v

(* --- lanes ------------------------------------------------------------ *)

(* Copy ring [a] (capacity [cap], [len] live from [head]) into the front of
   a fresh array of [ncap] cells filled with [fill]. *)
let unwrap a ~cap ~head ~len ncap fill =
  let b = Array.make ncap fill in
  let first = Int.min len (cap - head) in
  Array.blit a head b 0 first;
  Array.blit a 0 b first (len - first);
  b

let grow_lane l v =
  let cap = Array.length l.l_times and head = l.head and len = l.len in
  let ncap = Int.max 16 (cap * 2) in
  l.l_times <- unwrap l.l_times ~cap ~head ~len ncap 0;
  l.l_scheds <- unwrap l.l_scheds ~cap ~head ~len ncap 0;
  l.l_seqs <- unwrap l.l_seqs ~cap ~head ~len ncap 0;
  l.l_vals <- unwrap l.l_vals ~cap ~head ~len ncap v;
  l.head <- 0

(* Append to lane [l] when the key sorts after the lane's tail, else push it
   into the heap under the same key: the lane stays sorted either way. *)
let push_lane t l ~time ~sched ~seq v =
  let len = l.len in
  let mask = Array.length l.l_times - 1 in
  let tail = (l.head + len - 1) land mask in
  if len = 0 || key_less l.l_times.(tail) l.l_scheds.(tail) l.l_seqs.(tail) time sched seq
  then begin
    set_dummy t v;
    if len = mask + 1 then grow_lane l v;
    let i = (l.head + len) land (Array.length l.l_times - 1) in
    l.l_times.(i) <- time;
    l.l_scheds.(i) <- sched;
    l.l_seqs.(i) <- seq;
    l.l_vals.(i) <- v;
    l.len <- len + 1
  end
  else ignore (push_seq t ~time ~sched ~seq v : handle)

let push_arrival t ~time v =
  let seq = t.next_arrival_seq in
  t.next_arrival_seq <- seq + 1;
  push_lane t t.arrivals ~time ~sched:min_int ~seq v

let push_hop t ~time ~sched ~src v = push_lane t t.hops ~time ~sched ~seq:(fresh_seq t ~src) v

(* --- pop: the least of the heap top and the lane heads ------------------ *)

type store = Heap | Arrivals | Hops | Nowhere

(* The head of non-empty lane [l] sorts before the top of a non-empty
   heap. *)
let[@inline] lane_before_heap t l =
  let i = l.head in
  key_less l.l_times.(i) l.l_scheds.(i) l.l_seqs.(i) t.times.(0) t.scheds.(0) t.seqs.(0)

(* Which store holds the least key. *)
let least t =
  let a = t.arrivals and h = t.hops in
  let first =
    if a.len = 0 then if t.size = 0 then Nowhere else Heap
    else if t.size = 0 || lane_before_heap t a then Arrivals
    else Heap
  in
  if h.len = 0 then first
  else
    match first with
    | Nowhere -> Hops
    | Heap -> if lane_before_heap t h then Hops else Heap
    | Arrivals | Hops ->
        let i = h.head and j = a.head in
        if key_less h.l_times.(i) h.l_scheds.(i) h.l_seqs.(i) a.l_times.(j) a.l_scheds.(j)
             a.l_seqs.(j)
        then Hops
        else Arrivals

let pop_heap t =
  let s = t.slots.(0) in
  t.popped_time <- t.times.(0);
  t.popped_src <- t.seqs.(0) lsr counter_bits;
  let v = t.payloads.(s) in
  free_slot t s;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    move t ~src:last ~dst:0;
    sift_down t 0
  end;
  v

let pop_lane t l =
  let i = l.head in
  t.popped_time <- l.l_times.(i);
  t.popped_src <- l.l_seqs.(i) lsr counter_bits;
  let v = l.l_vals.(i) in
  (match t.dummy with Some d -> l.l_vals.(i) <- d | None -> ());
  l.head <- (i + 1) land (Array.length l.l_times - 1);
  l.len <- l.len - 1;
  v

let pop_exn t =
  match least t with
  | Heap -> pop_heap t
  | Hops -> pop_lane t t.hops
  | Arrivals -> pop_lane t t.arrivals
  | Nowhere -> invalid_arg "Event_queue.pop_exn: empty"

let popped_time t = t.popped_time
let popped_src t = t.popped_src

let pop t =
  if is_empty t then None
  else begin
    let v = pop_exn t in
    Some (t.popped_time, v)
  end

let[@inline] lane_min_time l (m : int) =
  if l.len = 0 then m
  else
    let x = l.l_times.(l.head) in
    if x < m then x else m

let min_time_exn t =
  let m = if t.size = 0 then max_int else t.times.(0) in
  let m = lane_min_time t.hops (lane_min_time t.arrivals m) in
  if m = max_int && is_empty t then invalid_arg "Event_queue.min_time_exn: empty";
  m

let peek_time t = if is_empty t then None else Some (min_time_exn t)

let holds t h =
  let s = h land slot_mask and g = h lsr slot_bits in
  h >= 0 && s < t.slots_used && t.gens.(s) = g && t.pos_of.(s) >= 0

let time_of t h =
  if holds t h then Some t.times.(t.pos_of.(h land slot_mask)) else None

(* Remove the entry at heap position [pos]; its slot must already be freed
   (or about to be re-pushed). *)
let remove_at t pos =
  let last = t.size - 1 in
  t.size <- last;
  if pos < last then begin
    move t ~src:last ~dst:pos;
    sift_up t pos;
    sift_down t pos
  end

let cancel t h =
  if not (holds t h) then false
  else begin
    let s = h land slot_mask in
    let pos = t.pos_of.(s) in
    free_slot t s;
    remove_at t pos;
    true
  end

let reschedule_from t h ~time ~sched ~src =
  if not (holds t h) then false
  else begin
    let s = h land slot_mask in
    let pos = t.pos_of.(s) in
    t.times.(pos) <- time;
    (* A fresh key: a rescheduled event sorts as if it had just been
       pushed. *)
    t.scheds.(pos) <- sched;
    t.seqs.(pos) <- fresh_seq t ~src;
    sift_up t pos;
    sift_down t t.pos_of.(s);
    true
  end

let reschedule t h ~time = reschedule_from t h ~time ~sched:0 ~src:0

let clear_lane t l =
  (match t.dummy with
  | Some d ->
      for k = 0 to l.len - 1 do
        l.l_vals.((l.head + k) land (Array.length l.l_vals - 1)) <- d
      done
  | None -> ());
  l.head <- 0;
  l.len <- 0

let clear t =
  for i = 0 to t.size - 1 do
    let s = t.slots.(i) in
    t.gens.(s) <- t.gens.(s) + 1;
    t.pos_of.(s) <- (-1);
    match t.dummy with Some d -> t.payloads.(s) <- d | None -> ()
  done;
  t.size <- 0;
  t.free_top <- 0;
  t.slots_used <- 0;
  clear_lane t t.arrivals;
  clear_lane t t.hops

let lane_sorted l =
  let mask = Array.length l.l_times - 1 in
  let ok = ref true in
  for k = 1 to l.len - 1 do
    let i = (l.head + k - 1) land mask and j = (l.head + k) land mask in
    if not (key_less l.l_times.(i) l.l_scheds.(i) l.l_seqs.(i) l.l_times.(j) l.l_scheds.(j)
              l.l_seqs.(j))
    then ok := false
  done;
  !ok

(* Invariant check for the property tests: every child sorts after its
   parent under (time, sched, seq), pos_of is the inverse of slots, and
   each lane is in ascending key order. *)
let invariants_ok t =
  let ok = ref true in
  for i = 1 to t.size - 1 do
    if less t i ((i - 1) / 2) then ok := false
  done;
  for i = 0 to t.size - 1 do
    if t.pos_of.(t.slots.(i)) <> i then ok := false
  done;
  let live = ref 0 in
  for s = 0 to t.slots_used - 1 do
    if t.pos_of.(s) >= 0 then incr live
  done;
  !ok && !live = t.size && lane_sorted t.arrivals && lane_sorted t.hops
