type stats = {
  mutable l1_hits : int;
  mutable l1_misses : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable forwards : int;
  mutable upgrades : int;
  mutable invalidations : int;
}

type t = {
  topo : Topology.t;
  cfg : Config.t;
  l1 : Cache.t array;
  dir : Directory.t;
  stats : stats;
  line_bytes : int;
  line_shift : int; (* log2 line_bytes *)
  (* Fixed costs, computed once: returning a stored float allocates
     nothing, where a freshly computed one is boxed. *)
  l1_ns : float;
  llc_ns : float;
  atomic_ns : float; (* pipeline serialization of a locked RMW *)
  no_sharers : Jord_util.Bitset.t; (* the empty set of an untouched line *)
}

let create topo =
  let cfg = Topology.config topo in
  let cores = Topology.cores topo in
  if not (Jord_util.Bits.is_power_of_two cfg.Config.line) then
    invalid_arg "Memsys.create: line size not a power of two";
  let mk_l1 _ =
    Cache.create ~size:cfg.Config.l1_size ~ways:cfg.Config.l1_ways ~line:cfg.Config.line
  in
  {
    topo;
    cfg;
    l1 = Array.init cores mk_l1;
    dir = Directory.create ~cores;
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
    line_bytes = cfg.Config.line;
    line_shift = Jord_util.Bits.log2_exact cfg.Config.line;
    l1_ns = Config.cycles_ns cfg cfg.Config.l1_latency;
    llc_ns = Config.cycles_ns cfg cfg.Config.llc_latency;
    atomic_ns = Config.cycles_ns cfg 4;
    no_sharers = Jord_util.Bitset.create 1;
  }

let topology t = t.topo
let config t = t.cfg
let stats t = t.stats
let line_of t addr =
  if addr < 0 then invalid_arg "Memsys: negative address";
  addr lsr t.line_shift
let lat t a b = Topology.latency_ns t.topo ~src:a ~dst:b

(* The directory entry of [line], created on first touch and homed on the
   requester's socket. *)
let entry_of t ~core ~line =
  let slot = Directory.find t.dir line in
  if slot >= 0 then Directory.entry t.dir slot
  else Directory.add t.dir line ~home:(Topology.slice_of_line t.topo ~requester:core line)

(* Invalidate the line in every sharer's L1 except [keep], walking the
   sharer set in place in ascending core order. Invalidations are sent in
   parallel from the home slice; the cost is the round trip to the farthest
   sharer. *)
let invalidate_sharers t (entry : Directory.entry) line ~home ~keep =
  let sharers = entry.Directory.sharers in
  let worst = ref 0.0 in
  let core = ref (Jord_util.Bitset.next_member sharers 0) in
  while !core >= 0 do
    let c = !core in
    if c <> keep then begin
      ignore (Cache.invalidate t.l1.(c) line : bool);
      Jord_util.Bitset.remove sharers c;
      if entry.Directory.owner = c then entry.Directory.owner <- -1;
      t.stats.invalidations <- t.stats.invalidations + 1;
      let d = 2.0 *. lat t home c in
      if d > !worst then worst := d
    end;
    core := Jord_util.Bitset.next_member sharers (c + 1)
  done;
  !worst

(* Fetch a line into [core]'s L1 with the desired state, accounting for the
   directory lookup at the home slice, remote-owner forwarding, LLC presence
   and DRAM cold fills. Returns latency. *)
let fill t ~core ~line ~exclusive =
  t.stats.l1_misses <- t.stats.l1_misses + 1;
  let entry = entry_of t ~core ~line in
  let home = entry.Directory.home in
  let base = t.l1_ns +. (2.0 *. lat t core home) +. t.llc_ns in
  let owner = entry.Directory.owner in
  let extra =
    if owner >= 0 && owner <> core then begin
      (* Cache-to-cache transfer: home forwards the request to the owner,
         which replies directly to the requester. *)
      t.stats.forwards <- t.stats.forwards + 1;
      let fwd = lat t home owner +. lat t owner core in
      if exclusive then begin
        ignore (Cache.invalidate t.l1.(owner) line : bool);
        Jord_util.Bitset.remove entry.Directory.sharers owner;
        entry.Directory.owner <- -1;
        t.stats.invalidations <- t.stats.invalidations + 1
      end
      else begin
        let slot = Cache.peek t.l1.(owner) line in
        if slot >= 0 then Cache.set_state t.l1.(owner) slot Mesi.Shared;
        entry.Directory.owner <- -1
      end;
      entry.Directory.in_llc <- true;
      fwd
    end
    else if entry.Directory.in_llc then begin
      t.stats.llc_hits <- t.stats.llc_hits + 1;
      0.0
    end
    else begin
      t.stats.dram_fills <- t.stats.dram_fills + 1;
      entry.Directory.in_llc <- true;
      t.cfg.Config.dram_ns
    end
  in
  let inval_cost =
    if exclusive then invalidate_sharers t entry line ~home ~keep:core else 0.0
  in
  let state =
    if exclusive then Mesi.Modified
    else if Jord_util.Bitset.is_empty entry.Directory.sharers then Mesi.Exclusive
    else Mesi.Shared
  in
  (* An L1 eviction tells the directory the core no longer holds the line. *)
  let evicted = Cache.insert t.l1.(core) line state in
  if evicted >= 0 then Directory.drop_core t.dir evicted core;
  Jord_util.Bitset.add entry.Directory.sharers core;
  if exclusive then entry.Directory.owner <- core
  else if state = Mesi.Exclusive then entry.Directory.owner <- core;
  base +. extra +. inval_cost

(* Every state a present line holds (M, E or S) can be read. *)
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
    | Mesi.Modified | Mesi.Exclusive ->
        (* The directory already names this core owner: every path that
           leaves a line M or E in an L1 sets it, and every path that
           clears it also downgrades or invalidates that copy. *)
        t.stats.l1_hits <- t.stats.l1_hits + 1;
        Cache.set_state l1 slot Mesi.Modified;
        t.l1_ns
    | Mesi.Shared ->
        (* Upgrade: request ownership from home, invalidate other sharers. *)
        t.stats.upgrades <- t.stats.upgrades + 1;
        let entry = entry_of t ~core ~line in
        let home = entry.Directory.home in
        let inval = invalidate_sharers t entry line ~home ~keep:core in
        Cache.set_state l1 slot Mesi.Modified;
        entry.Directory.owner <- core;
        Jord_util.Bitset.add entry.Directory.sharers core;
        t.l1_ns +. (2.0 *. lat t core home) +. inval
    | Mesi.Invalid -> fill t ~core ~line ~exclusive:true

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

let sharers t ~addr =
  let slot = Directory.find t.dir (line_of t addr) in
  if slot >= 0 then (Directory.entry t.dir slot).Directory.sharers else t.no_sharers

let home_of t ~addr ~requester =
  (entry_of t ~core:requester ~line:(line_of t addr)).Directory.home
