(* The record-based coherence state the flat arrays replaced, kept as
   reference models: the memory system over per-core [Cache] records and an
   [Int_table] of [Directory] entries with [Bitset] sharer records, and the
   VTD with a lazily created [Bitset] per slot. Latencies come from the hop
   formula, recomputed per call. Properties drive these and the real
   modules with the same operations and compare every result. *)

module Bitset = struct
  type t = { words : int array; capacity : int; mutable cardinal : int }

  let create n =
    if n <= 0 then invalid_arg "Bitset.create";
    { words = Array.make (Jord_util.Bits.ceil_div n 62) 0; capacity = n; cardinal = 0 }

  let check t i = if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of range"

  let mem t i =
    check t i;
    t.words.(i / 62) land (1 lsl (i mod 62)) <> 0

  let add t i =
    check t i;
    let w = i / 62 and bit = 1 lsl (i mod 62) in
    let word = t.words.(w) in
    if word land bit = 0 then begin
      t.words.(w) <- word lor bit;
      t.cardinal <- t.cardinal + 1
    end

  let remove t i =
    check t i;
    let w = i / 62 and bit = 1 lsl (i mod 62) in
    let word = t.words.(w) in
    if word land bit <> 0 then begin
      t.words.(w) <- word land lnot bit;
      t.cardinal <- t.cardinal - 1
    end

  let is_empty t = t.cardinal = 0

  let clear t =
    Array.fill t.words 0 (Array.length t.words) 0;
    t.cardinal <- 0

  let to_list t = List.filter (mem t) (List.init t.capacity Fun.id)
end

module Cache = struct
  type state = Modified | Exclusive | Shared | Invalid

  type t = {
    ways : int;
    set_mask : int;
    tags : int array;
    states : state array;
    lru : int array;
    mutable tick : int;
  }

  let create ~size ~ways ~line =
    let lines = size / line in
    {
      ways;
      set_mask = (lines / ways) - 1;
      tags = Array.make lines (-1);
      states = Array.make lines Invalid;
      lru = Array.make lines 0;
      tick = 0;
    }

  let peek t line =
    let base = (abs line land t.set_mask) * t.ways in
    let rec go i = if i = base + t.ways then -1 else if t.tags.(i) = line then i else go (i + 1) in
    go base

  let touch t i =
    t.tick <- t.tick + 1;
    t.lru.(i) <- t.tick

  let lookup t line =
    let i = peek t line in
    if i >= 0 then touch t i;
    i

  let state t i = t.states.(i)

  let set_state t i state =
    if state = Invalid then t.tags.(i) <- -1;
    t.states.(i) <- state

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
    let i = peek t line in
    if i >= 0 then begin
      t.states.(i) <- state;
      touch t i;
      -1
    end
    else begin
      let i = victim_way t (abs line land t.set_mask) in
      let evicted = t.tags.(i) in
      t.tags.(i) <- line;
      t.states.(i) <- state;
      touch t i;
      evicted
    end

  let invalidate t line =
    let i = peek t line in
    if i >= 0 then begin
      t.tags.(i) <- -1;
      t.states.(i) <- Invalid
    end
end

module Directory = struct
  type entry = {
    sharers : Bitset.t;
    mutable owner : int;
    mutable in_llc : bool;
    home : int;
  }

  type t = { cores : int; table : entry Jord_util.Int_table.t }

  let create ~cores =
    let free = { sharers = Bitset.create 1; owner = -1; in_llc = false; home = -1 } in
    { cores; table = Jord_util.Int_table.create ~size:2048 free }

  let find t line = Jord_util.Int_table.find t.table line
  let entry t slot = Jord_util.Int_table.value t.table slot

  let add t line ~home =
    let e = { sharers = Bitset.create t.cores; owner = -1; in_llc = false; home } in
    ignore (Jord_util.Int_table.add t.table line e : int);
    e

  let drop_core t line core =
    let slot = find t line in
    if slot >= 0 then begin
      let e = entry t slot in
      Bitset.remove e.sharers core;
      if e.owner = core then e.owner <- -1
    end
end

module Memsys = struct
  open Jord_arch

  type t = {
    topo : Topology.t;
    cfg : Config.t;
    l1 : Cache.t array;
    dir : Directory.t;
    stats : Memsys.stats;
    line_bytes : int;
    l1_ns : float;
    llc_ns : float;
    atomic_ns : float;
  }

  let create topo =
    let cfg = Topology.config topo in
    let mk_l1 _ =
      Cache.create ~size:cfg.Config.l1_size ~ways:cfg.Config.l1_ways ~line:cfg.Config.line
    in
    {
      topo;
      cfg;
      l1 = Array.init (Topology.cores topo) mk_l1;
      dir = Directory.create ~cores:(Topology.cores topo);
      stats =
        {
          Memsys.l1_hits = 0;
          l1_misses = 0;
          llc_hits = 0;
          dram_fills = 0;
          forwards = 0;
          upgrades = 0;
          invalidations = 0;
        };
      line_bytes = cfg.Config.line;
      l1_ns = Config.cycles_ns cfg cfg.Config.l1_latency;
      llc_ns = Config.cycles_ns cfg cfg.Config.llc_latency;
      atomic_ns = Config.cycles_ns cfg 4;
    }

  let stats t = t.stats
  let line_of t addr = addr / t.line_bytes

  (* The hop formula: Manhattan distance on the per-socket mesh at
     [link_cycles] per hop, plus the inter-socket link. *)
  let lat t a b =
    let cfg = t.cfg in
    let (xa, ya), (xb, yb) = (Topology.tile_of t.topo a, Topology.tile_of t.topo b) in
    let intra = Config.cycles_ns cfg ((abs (xa - xb) + abs (ya - yb)) * cfg.Config.link_cycles) in
    if Topology.socket_of t.topo a = Topology.socket_of t.topo b then intra
    else intra +. cfg.Config.cross_socket_ns

  let entry_of t ~core ~line =
    let slot = Directory.find t.dir line in
    if slot >= 0 then Directory.entry t.dir slot
    else Directory.add t.dir line ~home:(Topology.slice_of_line t.topo ~requester:core line)

  let invalidate_sharers t (entry : Directory.entry) line ~home ~keep =
    let worst = ref 0.0 in
    List.iter
      (fun c ->
        if c <> keep then begin
          Cache.invalidate t.l1.(c) line;
          Bitset.remove entry.sharers c;
          if entry.owner = c then entry.owner <- -1;
          t.stats.invalidations <- t.stats.invalidations + 1;
          let d = 2.0 *. lat t home c in
          if d > !worst then worst := d
        end)
      (Bitset.to_list entry.sharers);
    !worst

  let fill t ~core ~line ~exclusive =
    t.stats.l1_misses <- t.stats.l1_misses + 1;
    let entry = entry_of t ~core ~line in
    let home = entry.home in
    let base = t.l1_ns +. (2.0 *. lat t core home) +. t.llc_ns in
    let owner = entry.owner in
    let extra =
      if owner >= 0 && owner <> core then begin
        t.stats.forwards <- t.stats.forwards + 1;
        let fwd = lat t home owner +. lat t owner core in
        if exclusive then begin
          Cache.invalidate t.l1.(owner) line;
          Bitset.remove entry.sharers owner;
          entry.owner <- -1;
          t.stats.invalidations <- t.stats.invalidations + 1
        end
        else begin
          let slot = Cache.peek t.l1.(owner) line in
          if slot >= 0 then Cache.set_state t.l1.(owner) slot Cache.Shared;
          entry.owner <- -1
        end;
        entry.in_llc <- true;
        fwd
      end
      else if entry.in_llc then begin
        t.stats.llc_hits <- t.stats.llc_hits + 1;
        0.0
      end
      else begin
        t.stats.dram_fills <- t.stats.dram_fills + 1;
        entry.in_llc <- true;
        t.cfg.Config.dram_ns
      end
    in
    let inval_cost =
      if exclusive then invalidate_sharers t entry line ~home ~keep:core else 0.0
    in
    let state =
      if exclusive then Cache.Modified
      else if Bitset.is_empty entry.sharers then Cache.Exclusive
      else Cache.Shared
    in
    let evicted = Cache.insert t.l1.(core) line state in
    if evicted >= 0 then Directory.drop_core t.dir evicted core;
    Bitset.add entry.sharers core;
    if exclusive then entry.owner <- core
    else if state = Cache.Exclusive then entry.owner <- core;
    base +. extra +. inval_cost

  let read t ~core ~addr =
    let line = line_of t addr in
    if Cache.lookup t.l1.(core) line >= 0 then begin
      t.stats.l1_hits <- t.stats.l1_hits + 1;
      t.l1_ns
    end
    else fill t ~core ~line ~exclusive:false

  let write t ~core ~addr =
    let line = line_of t addr in
    let l1 = t.l1.(core) in
    let slot = Cache.lookup l1 line in
    if slot < 0 then fill t ~core ~line ~exclusive:true
    else
      match Cache.state l1 slot with
      | Cache.Modified | Cache.Exclusive ->
          t.stats.l1_hits <- t.stats.l1_hits + 1;
          Cache.set_state l1 slot Cache.Modified;
          t.l1_ns
      | Cache.Shared ->
          t.stats.upgrades <- t.stats.upgrades + 1;
          let entry = entry_of t ~core ~line in
          let home = entry.home in
          let inval = invalidate_sharers t entry line ~home ~keep:core in
          Cache.set_state l1 slot Cache.Modified;
          entry.owner <- core;
          Bitset.add entry.sharers core;
          t.l1_ns +. (2.0 *. lat t core home) +. inval
      | Cache.Invalid -> fill t ~core ~line ~exclusive:true

  let atomic t ~core ~addr = write t ~core ~addr +. t.atomic_ns

  let read_block t ~core ~addr ~bytes =
    if bytes <= 0 then 0.0
    else begin
      let nlines = Jord_util.Bits.ceil_div bytes t.line_bytes in
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

  (* The directory's sharers of the address' line; [None] for a line never
     touched. *)
  let sharers t ~addr =
    let slot = Directory.find t.dir (line_of t addr) in
    if slot < 0 then None else Some (Bitset.to_list (Directory.entry t.dir slot).sharers)

  let home_of t ~addr ~requester = (entry_of t ~core:requester ~line:(line_of t addr)).home
end

module Vtd = struct
  open Jord_vm

  type t = {
    sets : int;
    ways : int;
    cores : int;
    tags : int array;
    lru : int array;
    sharer_sets : Bitset.t option array;
    mutable tick : int;
    stats : Vtd.stats;
  }

  let create ~sets ~ways ~cores =
    {
      sets;
      ways;
      cores;
      tags = Array.make (sets * ways) (-1);
      lru = Array.make (sets * ways) 0;
      sharer_sets = Array.make (sets * ways) None;
      tick = 0;
      stats =
        {
          Vtd.registrations = 0;
          evictions = 0;
          tracked_shootdowns = 0;
          fallback_shootdowns = 0;
        };
    }

  let set_of t vte_addr = (vte_addr / Va.vte_bytes) mod t.sets

  let find t vte_addr =
    let base = set_of t vte_addr * t.ways in
    let rec go i =
      if i = base + t.ways then -1 else if t.tags.(i) = vte_addr then i else go (i + 1)
    in
    go base

  let touch t i =
    t.tick <- t.tick + 1;
    t.lru.(i) <- t.tick

  let sharer_set t i =
    match t.sharer_sets.(i) with
    | Some s -> s
    | None ->
        let s = Bitset.create t.cores in
        t.sharer_sets.(i) <- Some s;
        s

  let note_read t ~vte_addr ~core =
    t.stats.registrations <- t.stats.registrations + 1;
    let i = find t vte_addr in
    if i >= 0 then begin
      Bitset.add (sharer_set t i) core;
      touch t i
    end
    else begin
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
      Bitset.clear s;
      Bitset.add s core;
      touch t i
    end

  let write_slot t ~vte_addr =
    let i = find t vte_addr in
    if i >= 0 then t.stats.tracked_shootdowns <- t.stats.tracked_shootdowns + 1
    else t.stats.fallback_shootdowns <- t.stats.fallback_shootdowns + 1;
    i

  let sharers t i = Bitset.to_list (sharer_set t i)

  let note_write t ~vte_addr =
    let i = find t vte_addr in
    if i >= 0 then begin
      t.tags.(i) <- -1;
      Bitset.clear (sharer_set t i)
    end

  let drop_core t ~vte_addr ~core =
    let i = find t vte_addr in
    if i >= 0 then Bitset.remove (sharer_set t i) core

  let tracked t = Array.fold_left (fun acc a -> if a <> -1 then acc + 1 else acc) 0 t.tags
end
