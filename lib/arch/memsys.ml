module Bitset = Jord_util.Bitset

type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable forwards : int;
  mutable upgrades : int;
  mutable invalidations : int;
}

(* MESI state in the low two bits of an L1 way word. *)
let modified = 0
let exclusive = 1
let shared = 2

(* A free directory slot's line word. Lines are non-negative. *)
let free = min_int

(* A slot's meta word: home slice from bit 31, owner + 1 in bits 1..30,
   LLC presence in bit 0. *)
let owner_mask = (1 lsl 30) - 1

type t = {
  topo : Topology.t;
  cfg : Config.t;
  cores : int;
  stats : stats;
  line_bytes : int;
  line_shift : int; (* log2 line_bytes *)
  (* Fixed costs, computed once: returning a stored float allocates
     nothing, where a freshly computed one is boxed. *)
  l1_ns : float;
  llc_ns : float;
  atomic_ns : float; (* pipeline serialization of a locked RMW *)
  lat : float array; (* one-way NoC latency, [src * cores + dst] *)
  (* Every core's L1 ways: [core * l1_lines + set * l1_ways + way] holds
     [line lsl 2 lor state], or -1 when the way is empty. *)
  l1_lines : int;
  l1_ways : int;
  set_mask : int; (* sets - 1 *)
  l1 : int array;
  lru : int array; (* same index; bigger = more recently used *)
  ticks : int array; (* per core *)
  (* The directory: open addressing, [stride] ints per slot (the line, the
     meta word, then [sharer_words] sharer words). A slot is named by the
     offset of its first word. Entries are never removed, so a free slot's
     sharer words are zero. *)
  sharer_words : int;
  stride : int;
  mutable dir : int array;
  mutable dir_shift : int; (* 63 - log2 (slots) *)
  mutable dir_size : int;
}

let dir_slots = 4096

(* A directory of [slots] free slots. *)
let empty_dir ~slots ~stride =
  let dir = Array.make (slots * stride) 0 in
  for s = 0 to slots - 1 do
    dir.(s * stride) <- free
  done;
  dir

let create topo =
  let cfg = Topology.config topo in
  let cores = Topology.cores topo in
  let line = cfg.Config.line and ways = cfg.Config.l1_ways in
  if not (Jord_util.Bits.is_power_of_two line) then
    invalid_arg "Memsys.create: line size not a power of two";
  (* A way word keeps the line in bits 2..; every line of a non-negative
     address fits there when lines are at least 4 bytes. *)
  if line < 4 then invalid_arg "Memsys.create: line size below 4 bytes";
  if cfg.Config.l1_size <= 0 || ways <= 0 then invalid_arg "Memsys.create: L1 geometry";
  let l1_lines = cfg.Config.l1_size / line in
  if l1_lines mod ways <> 0 then
    invalid_arg "Memsys.create: L1 lines not divisible by ways";
  let sets = l1_lines / ways in
  if not (Jord_util.Bits.is_power_of_two sets) then
    invalid_arg "Memsys.create: L1 sets not a power of two";
  let sharer_words = Bitset.words_for cores in
  let stride = 2 + sharer_words in
  {
    topo;
    cfg;
    cores;
    stats =
      {
        l1_hits = 0;
        l1_misses = 0;
        llc_hits = 0;
        dram_fills = 0;
        forwards = 0;
        upgrades = 0;
        invalidations = 0;
      };
    line_bytes = line;
    line_shift = Jord_util.Bits.log2_exact line;
    l1_ns = Config.cycles_ns cfg cfg.Config.l1_latency;
    llc_ns = Config.cycles_ns cfg cfg.Config.llc_latency;
    atomic_ns = Config.cycles_ns cfg 4;
    lat =
      Array.init (cores * cores) (fun i ->
          Topology.latency_ns topo ~src:(i / cores) ~dst:(i mod cores));
    l1_lines;
    l1_ways = ways;
    set_mask = sets - 1;
    l1 = Array.make (cores * l1_lines) (-1);
    lru = Array.make (cores * l1_lines) 0;
    ticks = Array.make cores 0;
    sharer_words;
    stride;
    dir = empty_dir ~slots:dir_slots ~stride;
    dir_shift = 63 - Jord_util.Bits.log2_exact dir_slots;
    dir_size = 0;
  }

let topology t = t.topo
let config t = t.cfg
let stats t = t.stats

let[@inline] line_of t addr =
  if addr < 0 then invalid_arg "Memsys: negative address";
  addr lsr t.line_shift

let[@inline] check_core t core =
  if core < 0 || core >= t.cores then invalid_arg "Memsys: core out of range"

let[@inline] lat t a b = t.lat.((a * t.cores) + b)

(* --- L1 ways --- *)

let set_base t ~core line = (core * t.l1_lines) + ((line land t.set_mask) * t.l1_ways)

(* Index of [line]'s way in [core]'s L1, or -1. An empty way's word (-1)
   shifts to 2^61 - 1, which no line reaches. *)
let[@inline] l1_find t ~core line =
  let base = set_base t ~core line in
  let stop = base + t.l1_ways in
  let i = ref base in
  while !i < stop && t.l1.(!i) lsr 2 <> line do
    incr i
  done;
  if !i = stop then -1 else !i

let[@inline] touch t ~core i =
  let tick = t.ticks.(core) + 1 in
  t.ticks.(core) <- tick;
  t.lru.(i) <- tick

(* The first empty way of [i, stop), or else the least recently used of
   [best] and those ways (the first of them on a tie). *)
let rec victim_in (l1 : int array) (lru : int array) i stop best =
  if i = stop then best
  else if l1.(i) = -1 then i
  else victim_in l1 lru (i + 1) stop (if lru.(i) < lru.(best) then i else best)

(* Fill [line], which [core]'s L1 does not hold, in [state]: the first
   empty way, else the LRU victim. Returns the evicted line, or -1. *)
let l1_insert t ~core line state =
  let base = set_base t ~core line in
  let i = victim_in t.l1 t.lru base (base + t.l1_ways) base in
  let evicted = t.l1.(i) in
  t.l1.(i) <- (line lsl 2) lor state;
  touch t ~core i;
  if evicted = -1 then -1 else evicted lsr 2

let l1_invalidate t ~core line =
  let i = l1_find t ~core line in
  if i >= 0 then t.l1.(i) <- -1

(* --- Directory --- *)

(* Fibonacci hashing, as [Jord_util.Int_table]: the top bits of the line
   times an odd constant, so runs of consecutive lines spread out. *)
let[@inline] home_slot t line = ((line * 0x2545F4914F6CDD1D) lsr t.dir_shift) * t.stride

(* Linear probing from slot [o]: the slot holding [line], or else the
   first free one. *)
let rec probe (dir : int array) line o stride len =
  let k = dir.(o) in
  if k = line || k = free then o
  else
    let o = o + stride in
    probe dir line (if o = len then 0 else o) stride len

let[@inline] slot_of t line = probe t.dir line (home_slot t line) t.stride (Array.length t.dir)

let[@inline] dir_find t line =
  let o = slot_of t line in
  if t.dir.(o) = line then o else -1

let grow t =
  let old = t.dir and stride = t.stride in
  let dir = empty_dir ~slots:(2 * Array.length old / stride) ~stride in
  t.dir <- dir;
  t.dir_shift <- t.dir_shift - 1;
  let o = ref 0 in
  while !o < Array.length old do
    let line = old.(!o) in
    if line <> free then
      Array.blit old !o dir (probe dir line (home_slot t line) stride (Array.length dir)) stride;
    o := !o + stride
  done

(* A new entry for [line], which has none, homed at [home], with no owner
   or sharer and not yet in the LLC. Grows the table at 3/4 load first,
   which moves every slot. *)
let dir_add t line ~home =
  if 4 * (t.dir_size + 1) > 3 * (Array.length t.dir / t.stride) then grow t;
  let o = slot_of t line in
  t.dir.(o) <- line;
  t.dir.(o + 1) <- home lsl 31;
  t.dir_size <- t.dir_size + 1;
  o

let[@inline] home t o = t.dir.(o + 1) lsr 31
let[@inline] owner t o = ((t.dir.(o + 1) lsr 1) land owner_mask) - 1

let[@inline] set_owner t o core =
  let m = t.dir.(o + 1) in
  t.dir.(o + 1) <- (m land lnot (owner_mask lsl 1)) lor ((core + 1) lsl 1)

let[@inline] in_llc t o = t.dir.(o + 1) land 1 <> 0
let[@inline] set_in_llc t o = t.dir.(o + 1) <- t.dir.(o + 1) lor 1

(* The directory slot of [line], created on first touch and homed on the
   requester's socket. *)
let entry_of t ~core ~line =
  let o = dir_find t line in
  if o >= 0 then o
  else dir_add t line ~home:(Topology.slice_of_line t.topo ~requester:core line)

(* An L1 eviction tells the directory the core no longer holds the line. *)
let drop_core t line core =
  let o = dir_find t line in
  if o >= 0 then begin
    Bitset.remove t.dir (o + 2) core;
    if owner t o = core then set_owner t o (-1)
  end

(* Invalidate the line in every sharer's L1 except [keep], walking the
   sharer words in place in ascending core order. Invalidations are sent
   in parallel from the home slice; the cost is the round trip to the
   farthest sharer. *)
let[@inline] invalidate_sharers t o line ~home ~keep =
  let worst = ref 0.0 in
  let core = ref (Bitset.next_member t.dir (o + 2) t.sharer_words 0) in
  while !core >= 0 do
    let c = !core in
    if c <> keep then begin
      l1_invalidate t ~core:c line;
      Bitset.remove t.dir (o + 2) c;
      if owner t o = c then set_owner t o (-1);
      t.stats.invalidations <- t.stats.invalidations + 1;
      let d = 2.0 *. lat t home c in
      if d > !worst then worst := d
    end;
    core := Bitset.next_member t.dir (o + 2) t.sharer_words (c + 1)
  done;
  !worst

(* Fetch a line into [core]'s L1 with the desired state, accounting for the
   directory lookup at the home slice, remote-owner forwarding, LLC presence
   and DRAM cold fills. Returns latency. The slot [o] stays put: nothing
   below adds a directory entry. *)
let fill t ~core ~line ~exclusive:excl =
  t.stats.l1_misses <- t.stats.l1_misses + 1;
  let o = entry_of t ~core ~line in
  let home = home t o in
  let base = t.l1_ns +. (2.0 *. lat t core home) +. t.llc_ns in
  let owner = owner t o in
  let extra =
    if owner >= 0 && owner <> core then begin
      (* Cache-to-cache transfer: home forwards the request to the owner,
         which replies directly to the requester. *)
      t.stats.forwards <- t.stats.forwards + 1;
      let fwd = lat t home owner +. lat t owner core in
      if excl then begin
        l1_invalidate t ~core:owner line;
        Bitset.remove t.dir (o + 2) owner;
        set_owner t o (-1);
        t.stats.invalidations <- t.stats.invalidations + 1
      end
      else begin
        let i = l1_find t ~core:owner line in
        if i >= 0 then t.l1.(i) <- (line lsl 2) lor shared;
        set_owner t o (-1)
      end;
      set_in_llc t o;
      fwd
    end
    else if in_llc t o then begin
      t.stats.llc_hits <- t.stats.llc_hits + 1;
      0.0
    end
    else begin
      t.stats.dram_fills <- t.stats.dram_fills + 1;
      set_in_llc t o;
      t.cfg.Config.dram_ns
    end
  in
  let inval_cost = if excl then invalidate_sharers t o line ~home ~keep:core else 0.0 in
  let state =
    if excl then modified
    else if Bitset.is_empty t.dir (o + 2) t.sharer_words then exclusive
    else shared
  in
  let evicted = l1_insert t ~core line state in
  if evicted >= 0 then drop_core t evicted core;
  Bitset.add t.dir (o + 2) core;
  if state <> shared then set_owner t o core;
  base +. extra +. inval_cost

(* Every state a present line holds (M, E or S) can be read. *)
let read t ~core ~addr =
  let line = line_of t addr in
  check_core t core;
  let i = l1_find t ~core line in
  if i >= 0 then begin
    touch t ~core i;
    t.stats.l1_hits <- t.stats.l1_hits + 1;
    t.l1_ns
  end
  else fill t ~core ~line ~exclusive:false

let write t ~core ~addr =
  let line = line_of t addr in
  check_core t core;
  let i = l1_find t ~core line in
  if i < 0 then fill t ~core ~line ~exclusive:true
  else begin
    touch t ~core i;
    if t.l1.(i) land 3 <> shared then begin
      (* M or E. The directory already names this core owner: every path
         that leaves a line M or E in an L1 sets it, and every path that
         clears it also downgrades or invalidates that copy. *)
      t.stats.l1_hits <- t.stats.l1_hits + 1;
      t.l1.(i) <- (line lsl 2) lor modified;
      t.l1_ns
    end
    else begin
      (* Upgrade: request ownership from home, invalidate other sharers. *)
      t.stats.upgrades <- t.stats.upgrades + 1;
      let o = entry_of t ~core ~line in
      let home = home t o in
      let inval = invalidate_sharers t o line ~home ~keep:core in
      t.l1.(i) <- (line lsl 2) lor modified;
      set_owner t o core;
      Bitset.add t.dir (o + 2) core;
      t.l1_ns +. (2.0 *. lat t core home) +. inval
    end
  end

(* Locked RMW: ownership acquisition plus pipeline serialization. *)
let atomic t ~core ~addr = write t ~core ~addr +. t.atomic_ns

let read_block t ~core ~addr ~bytes =
  if bytes <= 0 then 0.0
  else begin
    let nlines = Jord_util.Bits.ceil_div bytes t.line_bytes in
    (* The first line pays full latency; subsequent misses overlap thanks to
       memory-level parallelism and pay a quarter of their latency each. *)
    let first = read t ~core ~addr in
    if nlines = 1 then first
    else begin
      let total = ref first in
      for i = 1 to nlines - 1 do
        total := !total +. (read t ~core ~addr:(addr + (i * t.line_bytes)) *. 0.25)
      done;
      !total
    end
  end

(* Pull-based telemetry: closures read the live stats record at snapshot
   time, so the coherence hot path carries no extra work. *)
let register_metrics t ?(labels = []) reg =
  let open Jord_telemetry.Registry in
  let c name help extra fn = counter_fn reg ~help ~labels:(labels @ extra) name fn in
  let s = t.stats in
  c "jord_mem_hits_total" "Cache hits by level" [ ("level", "l1") ] (fun () ->
      float_of_int s.l1_hits);
  c "jord_mem_hits_total" "Cache hits by level" [ ("level", "llc") ] (fun () ->
      float_of_int s.llc_hits);
  c "jord_mem_l1_misses_total" "L1 misses (directory consulted)" [] (fun () ->
      float_of_int s.l1_misses);
  c "jord_mem_dram_fills_total" "Lines filled from DRAM" [] (fun () ->
      float_of_int s.dram_fills);
  c "jord_mem_forwards_total" "Cache-to-cache transfers from a remote owner" []
    (fun () -> float_of_int s.forwards);
  c "jord_mem_upgrades_total" "S->M upgrades requiring invalidations" [] (fun () ->
      float_of_int s.upgrades);
  c "jord_mem_invalidations_total" "Remote L1 lines invalidated" [] (fun () ->
      float_of_int s.invalidations)

let sharer_slot t ~addr = dir_find t (line_of t addr)

let next_sharer t o core =
  if o < 0 then -1 else Bitset.next_member t.dir (o + 2) t.sharer_words core

let home_of t ~addr ~requester =
  let line = line_of t addr in
  check_core t requester;
  home t (entry_of t ~core:requester ~line)
