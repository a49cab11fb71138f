(* Float accumulators in an all-float record, which OCaml stores unboxed:
   updating one allocates nothing. *)
type acc = {
  mutable shootdown_ns : float;
  mutable walk_ns : float;
  mutable stall_ns : float;
      (* Running VM-stall accumulator for per-request attribution: walks,
         I-VLB refill bubbles and shootdown waits add to it as they are
         charged. The executor marks it at the start of each synchronous
         compute block and reads the delta at the end (reset-and-read), so
         stray accumulation outside a block is harmless. *)
  mutable xlat_ns : float; (* latency of the translation in progress *)
}

type t = {
  memsys : Jord_arch.Memsys.t;
  store : Vma_store.t;
  va_cfg : Va.config;
  vtd : Vtd.t;
  mmus : Mmu.t array;
  mutable shootdowns : int;
  mutable walks : int;
  acc : acc;
  faults : int array; (* indexed by fault_class *)
  (* Fixed costs, computed once per machine. *)
  vtw_fsm_ns : float;
  ivlb_stall_ns : float;
  line_bytes : int;
}

(* Fault accounting: translation/protection faults by class, counted where
   the machine raises them (the telemetry layer reads these by label). *)
let fault_classes = [| "unmapped"; "permission"; "privileged"; "gate"; "policy" |]

let fault_class = function
  | Fault.Unmapped _ -> 0
  | Fault.Permission _ -> 1
  | Fault.Privileged_access _ -> 2
  | Fault.Gate_violation _ -> 3
  | Fault.Bad_handle _ -> 4

(* The VTW is a small FSM: besides the VTE fetch it spends a few cycles
   computing the entry address and validating the sub-array. *)
let vtw_fsm_cycles = 5

(* An I-VLB miss stalls the front end: besides the walk, the fetch stage
   refills after the bubble. *)
let ivlb_stall_cycles = 14

let create ?(i_entries = 16) ?(d_entries = 16) ~memsys ~store ~va_cfg () =
  let cores = Jord_arch.Topology.cores (Jord_arch.Memsys.topology memsys) in
  let cfg = Jord_arch.Memsys.config memsys in
  {
    memsys;
    store;
    va_cfg;
    vtd = Vtd.create ~cores ();
    mmus = Array.init cores (fun _ -> Mmu.create ~i_entries ~d_entries);
    shootdowns = 0;
    walks = 0;
    acc = { shootdown_ns = 0.0; walk_ns = 0.0; stall_ns = 0.0; xlat_ns = 0.0 };
    faults = Array.make (Array.length fault_classes) 0;
    vtw_fsm_ns = Jord_arch.Config.cycles_ns cfg vtw_fsm_cycles;
    ivlb_stall_ns = Jord_arch.Config.cycles_ns cfg ivlb_stall_cycles;
    line_bytes = cfg.Jord_arch.Config.line;
  }

let memsys t = t.memsys
let store t = t.store
let va_cfg t = t.va_cfg
let mmu t ~core = t.mmus.(core)
let vtd t = t.vtd
let config t = Jord_arch.Memsys.config t.memsys
let instr_ns t n = Jord_arch.Config.instr_ns (config t) n
let shootdown_count t = t.shootdowns
let shootdown_ns_total t = t.acc.shootdown_ns
let walk_count t = t.walks
let walk_ns_total t = t.acc.walk_ns
let stall_mark t = t.acc.stall_ns <- 0.0
let stall_since_mark t = t.acc.stall_ns

(* Aggregate VLB statistics across every core. *)
let vlb_totals t =
  Array.fold_left
    (fun (h, m) mmu ->
      let i = Vlb.stats (Mmu.i_vlb mmu) and d = Vlb.stats (Mmu.d_vlb mmu) in
      (h + i.Vlb.hits + d.Vlb.hits, m + i.Vlb.misses + d.Vlb.misses))
    (0, 0) t.mmus

(* Per-kind VLB totals (I vs D) across every core. *)
let vlb_totals_by_kind t =
  Array.fold_left
    (fun ((ih, im), (dh, dm)) mmu ->
      let i = Vlb.stats (Mmu.i_vlb mmu) and d = Vlb.stats (Mmu.d_vlb mmu) in
      ((ih + i.Vlb.hits, im + i.Vlb.misses), (dh + d.Vlb.hits, dm + d.Vlb.misses)))
    ((0, 0), (0, 0))
    t.mmus

let vlb_shootdown_drops t =
  Array.fold_left
    (fun acc mmu ->
      acc
      + (Vlb.stats (Mmu.i_vlb mmu)).Vlb.shootdowns
      + (Vlb.stats (Mmu.d_vlb mmu)).Vlb.shootdowns)
    0 t.mmus

let fault_count t = Array.fold_left ( + ) 0 t.faults

let note_fault t f = t.faults.(fault_class f) <- t.faults.(fault_class f) + 1

let reset_counters t =
  t.shootdowns <- 0;
  t.acc.shootdown_ns <- 0.0;
  t.walks <- 0;
  t.acc.walk_ns <- 0.0;
  Array.fill t.faults 0 (Array.length t.faults) 0

let vlb_of mmu = function `Instr -> Mmu.i_vlb mmu | `Data -> Mmu.d_vlb mmu

let canonical_tag t va =
  let i = Va.vte_index_of_va t.va_cfg va in
  if i < 0 then Fault.raise_fault (Fault.Unmapped va);
  Va.vte_addr_at t.va_cfg i

(* Charge the store's last footprint: its reads, then its writes, in
   access order. *)
let charge_footprint t ~core =
  let fp = Vma_store.footprint t.store in
  let acc = ref 0.0 in
  for i = 0 to fp.Footprint.n_reads - 1 do
    let addr = fp.Footprint.reads.(i) in
    acc := !acc +. Jord_arch.Memsys.read t.memsys ~core ~addr
  done;
  for i = 0 to fp.Footprint.n_writes - 1 do
    let addr = fp.Footprint.writes.(i) in
    acc := !acc +. Jord_arch.Memsys.write t.memsys ~core ~addr
  done;
  !acc

(* VTW walk: locate the VTE through the active data structure, charging its
   memory footprint, then register the translation with the VTD and fill the
   requesting VLB. The walk's latency is left in [acc.xlat_ns]. *)
let walk t ~core ~va ~vlb =
  let vte = Vma_store.lookup t.store ~va in
  let lat =
    t.vtw_fsm_ns +. instr_ns t (Vma_store.search_instrs t.store) +. charge_footprint t ~core
  in
  if not (Vte.covers vte va) then Fault.raise_fault (Fault.Unmapped va);
  let tag = canonical_tag t va in
  Vtd.note_read t.vtd ~vte_addr:tag ~core;
  Vlb.fill vlb ~vte_addr:tag vte;
  t.walks <- t.walks + 1;
  t.acc.walk_ns <- t.acc.walk_ns +. lat;
  t.acc.xlat_ns <- lat;
  vte

(* Overflow-pointer chase: VMAs shared by more than 20 PDs keep the extra
   (pd, perm) pairs behind the ptr field, one more memory access away. *)
let overflow_addr t va = canonical_tag t va + (t.va_cfg.Va.table_capacity * Va.vte_bytes)

(* Adds the overflow chase, if any, to [acc.xlat_ns]. *)
let check_perm t ~core ~mmu ~va ~access vte =
  if Vte.privileged vte && not (Mmu.p_bit mmu) then
    Fault.raise_fault (Fault.Privileged_access va);
  let pd = Mmu.ucid mmu in
  if Vte.overflow_lookup_needed vte ~pd then
    t.acc.xlat_ns <-
      t.acc.xlat_ns +. Jord_arch.Memsys.read t.memsys ~core ~addr:(overflow_addr t va);
  let perm = Vte.perm_for vte ~pd in
  if not (Perm.allows perm access) then
    Fault.raise_fault (Fault.Permission { va; pd; need = access })

(* Translate and check: the VTE covering [va], with the translation latency
   left in [acc.xlat_ns]. *)
let resolve_unchecked t ~core ~va ~access ~kind =
  let mmu = t.mmus.(core) in
  let vlb = vlb_of mmu kind in
  let slot = Vlb.lookup vlb ~va in
  let vte =
    if slot >= 0 then begin
      t.acc.xlat_ns <- 0.0;
      Vlb.vte vlb slot
    end
    else begin
      let vte = walk t ~core ~va ~vlb in
      let stall = match kind with `Instr -> t.ivlb_stall_ns | `Data -> 0.0 in
      let lat = t.acc.xlat_ns in
      t.acc.stall_ns <- t.acc.stall_ns +. lat +. stall;
      t.acc.xlat_ns <- lat +. stall;
      vte
    end
  in
  check_perm t ~core ~mmu ~va ~access vte;
  vte

let resolve t ~core ~va ~access ~kind =
  try resolve_unchecked t ~core ~va ~access ~kind
  with Fault.Fault f as exn ->
    note_fault t f;
    raise exn

let translate t ~core ~va ~access ~kind =
  ignore (resolve t ~core ~va ~access ~kind : Vte.t);
  t.acc.xlat_ns

let access t ~core ~va ~access:acc ~kind ~bytes =
  let vte = resolve t ~core ~va ~access:acc ~kind in
  let lat = t.acc.xlat_ns in
  let phys = Vte.translate vte va in
  let line = t.line_bytes in
  let data =
    match acc with
    | Perm.Write when bytes <= line ->
        Jord_arch.Memsys.write t.memsys ~core ~addr:phys
    | Perm.Write ->
        (* Streaming store: charge per line with overlap. *)
        let n = Jord_util.Bits.ceil_div bytes line in
        let total = ref 0.0 in
        for i = 0 to n - 1 do
          let l = Jord_arch.Memsys.write t.memsys ~core ~addr:(phys + (i * line)) in
          total := !total +. (if i = 0 then l else l *. 0.25)
        done;
        !total
    | Perm.Read | Perm.Exec ->
        Jord_arch.Memsys.read_block t.memsys ~core ~addr:phys ~bytes
  in
  lat +. data

(* The least sharer >= [c] of a shootdown's set: the VTD slot's when it
   tracks the translation, else (victim-cache fallback) every coherence
   sharer of the VTE line, pessimistically treated as a translation
   sharer. A toplevel function, so the walk allocates no closure. *)
let next_sharer t ~vslot ~dslot c =
  if vslot >= 0 then Vtd.next_sharer t.vtd vslot c
  else Jord_arch.Memsys.next_sharer t.memsys dslot c

let shootdown t ~core ~va =
  t.shootdowns <- t.shootdowns + 1;
  let tag = canonical_tag t va in
  (* [home_of] may add the line's directory entry, which moves every
     directory slot: take it before locating the fallback's slot. *)
  let home = Jord_arch.Memsys.home_of t.memsys ~addr:tag ~requester:core in
  let vslot = Vtd.write_slot t.vtd ~vte_addr:tag in
  let dslot = if vslot >= 0 then -1 else Jord_arch.Memsys.sharer_slot t.memsys ~addr:tag in
  let topo = Jord_arch.Memsys.topology t.memsys in
  (* Walk the sharer set in place, in ascending core order; nothing below
     changes it before [Vtd.note_write]. *)
  let worst = ref 0.0 in
  let sharer = ref (next_sharer t ~vslot ~dslot 0) in
  while !sharer >= 0 do
    let c = !sharer in
    let mmu = t.mmus.(c) in
    let hit_i = Vlb.invalidate_vte (Mmu.i_vlb mmu) ~vte_addr:tag in
    let hit_d = Vlb.invalidate_vte (Mmu.d_vlb mmu) ~vte_addr:tag in
    if c <> core && (hit_i || hit_d) then begin
      let d = 2.0 *. Jord_arch.Topology.latency_ns topo ~src:home ~dst:c in
      if d > !worst then worst := d
    end;
    sharer := next_sharer t ~vslot ~dslot (c + 1)
  done;
  Vtd.note_write t.vtd ~vte_addr:tag;
  t.acc.shootdown_ns <- t.acc.shootdown_ns +. !worst;
  t.acc.stall_ns <- t.acc.stall_ns +. !worst;
  !worst

(* Mean occupancy fraction of one VLB kind across every core — a sampled
   gauge (VLB pressure over time). *)
let vlb_occupancy t ~kind =
  let pick_vlb mmu = match kind with `Instr -> Mmu.i_vlb mmu | `Data -> Mmu.d_vlb mmu in
  let n = Array.length t.mmus in
  if n = 0 then 0.0
  else
    Array.fold_left
      (fun acc mmu ->
        let vlb = pick_vlb mmu in
        acc
        +. (float_of_int (Vlb.occupancy vlb) /. float_of_int (Int.max 1 (Vlb.capacity vlb))))
      0.0 t.mmus
    /. float_of_int n

(* Telemetry wiring (pull-based; see docs/observability.md for the metric
   catalog). Every closure reads counters this module already maintains. *)
let register_metrics t ?(labels = []) reg =
  let open Jord_telemetry.Registry in
  let c name help extra fn = counter_fn reg ~help ~labels:(labels @ extra) name fn in
  let g name help extra fn = gauge_fn reg ~help ~labels:(labels @ extra) name fn in
  let vlb part pick =
    c "jord_vlb_hits_total" "VLB hits by kind" [ ("vlb", part) ] (fun () ->
        float_of_int (fst (pick (vlb_totals_by_kind t))));
    c "jord_vlb_misses_total" "VLB misses by kind" [ ("vlb", part) ] (fun () ->
        float_of_int (snd (pick (vlb_totals_by_kind t))))
  in
  vlb "i" fst;
  vlb "d" snd;
  c "jord_vlb_shootdowns_total" "T-bit shootdown operations" [] (fun () ->
      float_of_int t.shootdowns);
  c "jord_vlb_shootdown_ns_total" "Cumulative shootdown latency (ns)" [] (fun () ->
      t.acc.shootdown_ns);
  c "jord_vlb_shootdown_invalidations_total"
    "VLB entries dropped by shootdown messages" [] (fun () ->
      float_of_int (vlb_shootdown_drops t));
  c "jord_vtw_walks_total" "VMA-table walks (VLB misses served)" [] (fun () ->
      float_of_int t.walks);
  c "jord_vtw_walk_ns_total" "Cumulative walk latency (ns)" [] (fun () -> t.acc.walk_ns);
  let vs = Vtd.stats t.vtd in
  c "jord_vtd_registrations_total" "T-bit reads registered in the VTD" [] (fun () ->
      float_of_int vs.Vtd.registrations);
  c "jord_vtd_evictions_total" "VTD entries evicted (capacity)" [] (fun () ->
      float_of_int vs.Vtd.evictions);
  c "jord_vtd_shootdowns_total" "VTE-write shootdowns by resolution path"
    [ ("path", "tracked") ] (fun () -> float_of_int vs.Vtd.tracked_shootdowns);
  c "jord_vtd_shootdowns_total" "VTE-write shootdowns by resolution path"
    [ ("path", "fallback") ] (fun () -> float_of_int vs.Vtd.fallback_shootdowns);
  g "jord_vtd_tracked_entries" "Live VTD entries" [] (fun () ->
      float_of_int (Vtd.tracked t.vtd));
  Array.iteri
    (fun i cls ->
      c "jord_faults_total" "Translation/protection faults by class"
        [ ("class", cls) ] (fun () -> float_of_int t.faults.(i)))
    fault_classes;
  g "jord_vlb_occupancy_fraction" "Mean VLB occupancy across cores"
    [ ("vlb", "i") ] (fun () -> vlb_occupancy t ~kind:`Instr);
  g "jord_vlb_occupancy_fraction" "Mean VLB occupancy across cores"
    [ ("vlb", "d") ] (fun () -> vlb_occupancy t ~kind:`Data)

let warm t ~core ~va ~kind =
  let mmu = t.mmus.(core) in
  let vlb = vlb_of mmu kind in
  if Vlb.lookup vlb ~va < 0 then begin
    let vte = Vma_store.lookup t.store ~va in
    if Vte.covers vte va then begin
      let tag = canonical_tag t va in
      Vtd.note_read t.vtd ~vte_addr:tag ~core;
      Vlb.fill vlb ~vte_addr:tag vte
    end
  end
