(* The traced run: one in-process pass per workload with spans around every
   public call the benchmark makes, the workload's twin, and isolated loops
   over single layers' public operations. From these come the per-layer
   metrics: counts read from accessors and registries after the run, host
   times from spans, and host ns per operation from the loops.

   Host-time layer metrics exist on every workload. Where a layer is on the
   workload's path its time is measured inside the run; where it is not,
   the same layer operation is timed in isolation, so a change to that
   layer still shows (and is predicted not to move the workload's
   end-to-end numbers). *)

module W = Workload

let median xs = Jord_util.Stats.percentile (Array.of_list xs) 50.0

(* Host ns per call of [f]: calls run in batches until [budget_s] is spent,
   split over five groups; the median group is reported, after one
   discarded warm-up group. *)
let ns_per_op ~budget_s f =
  let per_group = budget_s /. 5.0 in
  let group () =
    let t0 = Clock.now_ns () in
    let n = ref 0 in
    while Clock.since_s t0 < per_group do
      for _ = 1 to 256 do
        f ()
      done;
      n := !n + 256
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int !n
  in
  ignore (group ());
  median (List.init 5 (fun _ -> group ()))

let median_s ~reps f = median (List.init reps (fun _ -> snd (Clock.timed f)))

type isolated = {
  push_pop_ns : float;  (** One engine event: schedule, pop and dispatch. *)
  mmap_munmap_ns : float;  (** One mmap + munmap pair. *)
  cget_cput_ns : float;  (** One cget + cput pair. *)
  vlb_lookup_ns : float;
  vma_lookup_ns : float;
  read_hit_ns : float;
  coherence_miss_ns : float;  (** One access of a two-core write/read ping-pong. *)
  pregen_s : float;  (** [Loadgen.population] over the fleet shape. *)
  calibration_s : float;  (** The fleet's service-time calibration. *)
  fleet_create_s : float;
}

let isolated sp ~seed ~scale ~budget_s =
  let span name f = Spans.span sp name f in
  let loop name f = span name (fun () -> ns_per_op ~budget_s f) in
  let push_pop_ns =
    let engine = Jord_sim.Engine.create () in
    let noop _ = () in
    let k = ref 0 in
    let batch = 64 in
    loop "isolated.push_pop" (fun () ->
        incr k;
        for i = 1 to batch do
          Jord_sim.Engine.schedule engine
            ~after:(Jord_sim.Time.of_ns (float_of_int (((!k * 31) + (i * 17)) mod 97)))
            noop
        done;
        Jord_sim.Engine.run engine)
    /. float_of_int batch
  in
  let privlib () =
    let m = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
    let cfg = Jord_vm.Va.default_config in
    let hw = Jord_vm.Hw.create ~memsys:m ~store:(Jord_vm.Vma_store.plain cfg) ~va_cfg:cfg () in
    Jord_privlib.Privlib.create ~hw ~os:(Jord_privlib.Os_facade.create ())
  in
  let mmap_munmap_ns =
    let p = privlib () in
    loop "isolated.mmap_munmap" (fun () ->
        let va, _ = Jord_privlib.Privlib.mmap p ~core:0 ~bytes:4096 ~perm:Jord_vm.Perm.rw () in
        ignore (Jord_privlib.Privlib.munmap p ~core:0 ~va : float))
  in
  let cget_cput_ns =
    let p = privlib () in
    loop "isolated.cget_cput" (fun () ->
        let pd, _ = Jord_privlib.Privlib.cget p ~core:0 in
        ignore (Jord_privlib.Privlib.cput p ~core:0 ~pd : float))
  in
  let cfg = Jord_vm.Va.default_config in
  let vte index =
    let base = Jord_vm.Va.encode cfg (Jord_vm.Size_class.of_size 4096) ~index ~offset:0 in
    Jord_vm.Vte.create ~base ~bytes:4096 ~phys:(0x100000 + (index * 4096)) ()
  in
  let vlb_lookup_ns =
    let vlb = Jord_vm.Vlb.create ~entries:16 in
    for i = 0 to 15 do
      Jord_vm.Vlb.fill vlb ~vte_addr:i (vte i)
    done;
    let va = Jord_vm.Vte.base (vte 7) + 5 in
    loop "isolated.vlb_lookup" (fun () -> ignore (Jord_vm.Vlb.lookup vlb ~va))
  in
  let vma_lookup_ns =
    let table = Jord_vm.Vma_table.create cfg in
    for i = 0 to 999 do
      ignore (Jord_vm.Vma_table.insert table (vte i))
    done;
    let va = Jord_vm.Vte.base (vte 500) + 64 in
    loop "isolated.vma_lookup" (fun () -> ignore (Jord_vm.Vma_table.lookup table ~va))
  in
  let memsys () = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let read_hit_ns =
    let m = memsys () in
    loop "isolated.read_hit" (fun () -> ignore (Jord_arch.Memsys.read m ~core:0 ~addr:0x4000 : float))
  in
  let coherence_miss_ns =
    let m = memsys () in
    loop "isolated.coherence_miss" (fun () ->
        ignore (Jord_arch.Memsys.write m ~core:0 ~addr:0x8000 : float);
        ignore (Jord_arch.Memsys.read m ~core:1 ~addr:0x8000 : float))
    /. 2.0
  in
  let pregen_s =
    span "isolated.pregen" (fun () ->
        snd
          (Clock.timed (fun () ->
               Jord_workloads.Loadgen.population
                 ~submit:(fun ~time:_ ~user:_ -> ())
                 ~shape:(W.fleet_shape ~seed)
                 ~duration_us:(W.fleet_window_us *. scale) ())))
  in
  let fcfg = W.fleet_config ~seed in
  let calibration_s =
    span "isolated.calibration" (fun () ->
        median_s ~reps:3 (fun () ->
            Jord_faas.Model.mean_service_ns W.fleet_app ~samples:fcfg.Jord_fleet.Fleet.service_samples
              ~seed:fcfg.Jord_fleet.Fleet.service_seed))
  in
  let fleet_create_s =
    span "isolated.fleet_create" (fun () ->
        median_s ~reps:3 (fun () -> Jord_fleet.Fleet.create fcfg ~app:W.fleet_app))
  in
  {
    push_pop_ns;
    mmap_munmap_ns;
    cget_cput_ns;
    vlb_lookup_ns;
    vma_lookup_ns;
    read_hit_ns;
    coherence_miss_ns;
    pregen_s;
    calibration_s;
    fleet_create_s;
  }

type gc = { minor : float; promoted : float; majors : float }

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    {
      minor = b.Gc.minor_words -. a.Gc.minor_words;
      promoted = b.Gc.promoted_words -. a.Gc.promoted_words;
      majors = float_of_int (b.Gc.major_collections - a.Gc.major_collections);
    } )

(* Every per-layer metric by name. [e2e_run_s] is the untraced median run
   time the traced pass is compared with. *)
let derive (w : W.t) ~(main : W.outcome) ~(c : W.counts) ~(twin : W.outcome option)
    ~(iso : isolated) ~gc ~e2e_run_s =
  let f = float_of_int in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let per_req x = ratio x (f main.W.completed) in
  let per_event x = ratio x (f main.W.events) in
  let twin_ratio kind pick =
    match (w.W.twin, twin) with Some k, Some t when k = kind -> pick t | _ -> 1.0
  in
  (* A lower bound on the host time the layers' own operations account
     for: each counted operation at its isolated cost. PrivLib pairs
     include some of the memory accesses also counted as L1 hits, so the
     sum slightly overlaps there. *)
  let owned_ns =
    (f main.W.events *. iso.push_pop_ns)
    +. (c.W.mmap_munmap_calls /. 2.0 *. iso.mmap_munmap_ns)
    +. (c.W.cget_cput_calls /. 2.0 *. iso.cget_cput_ns)
    +. ((c.W.vlb_hits +. c.W.vlb_misses) *. iso.vlb_lookup_ns)
    +. (c.W.walks *. iso.vma_lookup_ns)
    +. (c.W.l1_hits *. iso.read_hit_ns)
    +. (c.W.mem_forwards *. iso.coherence_miss_ns)
  in
  [
    ("sim.events", f main.W.events);
    ("sim.events_per_req", per_req (f main.W.events));
    ("sim.events_per_s", ratio (f main.W.events) main.W.run_s);
    ("sim.push_pop_ns", iso.push_pop_ns);
    ("sim.pdes_speedup", twin_ratio W.Shards_1 (fun t -> ratio t.W.run_s main.W.run_s));
    ("faas.setup_s", if w.W.detailed then main.W.setup_s else iso.calibration_s);
    ("faas.dispatches_per_req", per_req c.W.dispatches);
    ("faas.queue_full_retries_per_req", per_req c.W.queue_full_retries);
    ("faas.forward_ratio", per_req c.W.forwards);
    ("faas.sim_queue_wait_us_per_req", per_req c.W.queue_wait_ns /. 1e3);
    ("privlib.calls_per_req", per_req c.W.privlib_calls);
    ("privlib.sim_ns_per_req", per_req c.W.privlib_ns);
    ("privlib.mmap_munmap_ns", iso.mmap_munmap_ns);
    ("privlib.cget_cput_ns", iso.cget_cput_ns);
    ("vm.vlb_hit_ratio", ratio c.W.vlb_hits (c.W.vlb_hits +. c.W.vlb_misses));
    ("vm.vtw_walks_per_req", per_req c.W.walks);
    ("vm.shootdowns_per_req", per_req c.W.shootdowns);
    ("vm.vlb_lookup_ns", iso.vlb_lookup_ns);
    ("vm.vma_lookup_ns", iso.vma_lookup_ns);
    ("arch.accesses_per_event", per_event (c.W.l1_hits +. c.W.l1_misses));
    ("arch.l1_hit_ratio", ratio c.W.l1_hits (c.W.l1_hits +. c.W.l1_misses));
    ("arch.forwards_per_req", per_req c.W.mem_forwards);
    ("arch.invalidations_per_req", per_req c.W.invalidations);
    ("arch.read_hit_ns", iso.read_hit_ns);
    ("arch.coherence_miss_ns", iso.coherence_miss_ns);
    ("workloads.arrivals", f main.W.arrivals);
    ("workloads.pregen_s", iso.pregen_s);
    ("fleet.setup_s", if w.W.detailed then iso.fleet_create_s else main.W.setup_s);
    ("fleet.affinity_hit_ratio", ratio c.W.affinity_hits c.W.routed);
    ("fleet.cold_starts", c.W.cold_starts);
    ("fleet.boots", c.W.boots);
    ("fleet.drains", c.W.drains);
    ("fleet.up_max", c.W.up_max);
    ("obsv.trace_events_per_req", per_req c.W.trace_events);
    ("obsv.slo_windows_closed", c.W.slo_windows);
    ("obsv.slo_transitions", c.W.slo_transitions);
    ("obsv.retained_spans", c.W.retained);
    ("obsv.retention_ratio", ratio c.W.retained c.W.offered);
    ("obsv.overhead", twin_ratio W.Without_obsv (fun t -> ratio main.W.run_s t.W.run_s));
    ("obsv.report_s", main.W.report_s);
    ("gc.minor_words_per_event", per_event gc.minor);
    ("gc.promoted_words_per_event", per_event gc.promoted);
    ("gc.major_collections", gc.majors);
    ("bench.isolated_share", ratio (owned_ns *. 1e-9) main.W.run_s);
    ("bench.trace_overhead", ratio main.W.run_s e2e_run_s);
  ]

type traced = {
  metrics : (Metrics.def * float) list;  (** In [Metrics.per_layer] order. *)
  main : W.outcome;  (** The traced pass itself. *)
  spans : Spans.span list;
  errors : string list;
}

(* The traced pass of one workload: the run under a root span named after
   the workload, then its twin and the isolated loops under roots of their
   own. *)
let run (w : W.t) ~seed ~scale ~budget_s ~e2e_run_s =
  let sp = Spans.create () in
  (* Each pass starts from a compacted heap, so none pays for sweeping the
     garbage of the one before. *)
  Gc.compact ();
  let (main, c), gc =
    Spans.span sp w.W.name (fun () ->
        gc_delta (fun () ->
            let o, counts = W.run w ~sp:(Some sp) ~seed ~scale ~twin:false in
            (o, Spans.span sp "registry.snapshot" counts)))
  in
  let twin =
    Option.map
      (fun _ ->
        Gc.compact ();
        Spans.span sp "twin" (fun () -> fst (W.run w ~sp:(Some sp) ~seed ~scale ~twin:true)))
      w.W.twin
  in
  Gc.compact ();
  let iso = Spans.span sp "isolated" (fun () -> isolated sp ~seed ~scale ~budget_s) in
  let errors =
    main.W.errors
    @
    match twin with
    | Some t when t.W.sim_sig <> main.W.sim_sig ->
        [ Printf.sprintf "twin (%s) simulated a different run: %s <> %s"
            (Option.fold ~none:"" ~some:W.twin_name w.W.twin) t.W.sim_sig main.W.sim_sig ]
    | Some t -> t.W.errors
    | None -> []
  in
  let values = derive w ~main ~c ~twin ~iso ~gc ~e2e_run_s in
  let metrics = List.map (fun (d : Metrics.def) -> (d, List.assoc d.Metrics.name values)) Metrics.per_layer in
  { metrics; main; spans = Spans.spans sp; errors }

(* Each root span's subtree must account for the root's duration: self
   times summed within 5%. *)
let reconcile_errors ~file spans =
  List.filter_map
    (fun (s : Spans.span) ->
      if s.Spans.parent <> -1 then None
      else
        let r = Spans.reconcile spans s in
        if Float.abs (r -. 1.0) <= 0.05 then None
        else Some (Printf.sprintf "%s: span %s self times sum to %.3fx its duration" file s.Spans.name r))
    spans

(* Per span name: count and self time, with its share of the root it sits
   under. *)
let self_time_table spans =
  let rec root_of (s : Spans.span) =
    match List.find_opt (fun p -> p.Spans.id = s.Spans.parent) spans with
    | Some p -> root_of p
    | None -> s
  in
  let rows = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let root = root_of s in
      let key = (root.Spans.id, s.Spans.name) in
      let self = Spans.self_ns spans s in
      match Hashtbl.find_opt rows key with
      | Some (root, n, total) -> Hashtbl.replace rows key (root, n + 1, total + self)
      | None ->
          order := key :: !order;
          Hashtbl.replace rows key (root, 1, self))
    spans;
  Jord_util.Render.table ~title:"span self time (host)"
    ~header:[ "root"; "span"; "count"; "self ms"; "share of root" ]
    ~rows:
      (List.rev_map
         (fun ((_, name) as key) ->
           let root, n, self = Hashtbl.find rows key in
           [
             root.Spans.name;
             name;
             string_of_int n;
             Printf.sprintf "%.3f" (float_of_int self /. 1e6);
             Printf.sprintf "%.1f%%"
               (100.0 *. float_of_int self /. float_of_int (Int.max 1 (Spans.dur_ns root)));
           ])
         !order)
    ()
