module Engine = Jord_sim.Engine
module Time = Jord_sim.Time
module Model = Jord_faas.Model
module Netmodel = Jord_faas.Netmodel
module Registry = Jord_telemetry.Registry
module Sketch = Jord_telemetry.Sketch
module Traffic = Jord_workloads.Traffic

type config = {
  servers : int;
  policy : Lb.policy;
  member : Fserver.config;
  net : Netmodel.t;
  autoscale : Autoscaler.spec option;
  shards : int;
  service_samples : int;
  service_seed : int;
}

let default_config =
  {
    servers = 100;
    policy = Lb.Affinity;
    member = Fserver.default_config;
    net = Netmodel.default;
    autoscale = None;
    shards = 1;
    service_samples = 256;
    service_seed = 1117;
  }

type lifecycle = Down | Booting | Up | Draining

type sharded = { epochs : Jord_sim.Epoch.t; shard_of : int array }

type scale_event = {
  ev_at : Time.t;
  ev_dir : [ `Up | `Down ];
  ev_count : int;
  ev_before : int;
  ev_after : int;
  ev_util : float;
}

type t = {
  cfg : config;
  entry_names : string array;
  entry_cum : float array;
  sharded : sharded option;
  engine : Engine.t;  (* the balancer's engine (shard 0 when sharded) *)
  members : Fserver.t array;
  state : lifecycle array;  (* written through [set_state] only *)
  mutable outstanding_total : int;
  lb : Lb.t;  (* routable = (state = Up), and the per-server in-flight counts *)
  autoscale : (Autoscaler.spec * Autoscaler.ctl) option;
  registry : Registry.t;
  latency : Sketch.t;
  mutable rollup : Jord_obsv.Rollup.t option;
  mutable tracer : Jord_obsv.Ftrace.t option;
  mutable slo_objs : Jord_obsv.Slo.objective list;  (* the "slo" keep rule *)
  mutable arrivals : int;
  mutable routed : int;
  mutable affinity_hits : int;
  mutable completed : int;
  mutable lb_shed : int;
  mutable server_shed : int;
  mutable up_count : int;
  mutable booting_count : int;
  mutable up_min : int;
  mutable up_max : int;
  mutable boots : int;
  mutable drains : int;
  mutable events : scale_event list;  (* newest first *)
  mutable traffic : Traffic.shape option;
  mutable duration_us : float;
  mutable ran : bool;
}

let one_way t = Netmodel.one_way t.cfg.net

(* --- cross-shard plumbing (the Cluster post pattern) ------------------- *)

(* Balancer -> member: the balancer runs on shard 0, so a co-sharded or
   sequential destination is a plain wire hop; anything else goes through
   the mailbox with the constant balancer sid (= servers, unique fleet-
   wide) as the same-timestamp tiebreaker. Every hop is one constant
   [one_way] ahead, so it joins the engine's hop lane in order. *)
let to_server t ~server ~at fn =
  match t.sharded with
  | Some s when s.shard_of.(server) <> 0 ->
      Jord_sim.Shard.post
        (Jord_sim.Epoch.shard s.epochs 0)
        ~dst:s.shard_of.(server) ~at ~sid:t.cfg.servers fn
  | Some s ->
      Engine.schedule_hop_at (Jord_sim.Epoch.engine s.epochs s.shard_of.(server)) ~time:at fn
  | None -> Engine.schedule_hop_at t.engine ~time:at fn

(* Member -> balancer: sid is the member's id, as in Cluster. *)
let to_lb t ~server ~at fn =
  match t.sharded with
  | Some s when s.shard_of.(server) <> 0 ->
      Jord_sim.Shard.post
        (Jord_sim.Epoch.shard s.epochs s.shard_of.(server))
        ~dst:0 ~at ~sid:server fn
  | Some _ | None -> Engine.schedule_hop_at t.engine ~time:at fn

(* --- balancer-side request lifecycle ----------------------------------- *)

let entry_of_user t ~user =
  let u = Traffic.hash01 ~seed:t.cfg.service_seed ~user in
  let n = Array.length t.entry_cum in
  let rec go i = if i >= n - 1 || u < t.entry_cum.(i) then i else go (i + 1) in
  go 0

let observe_rollup t ~at_ps ~entry ~latency_ps ~shed ~trace_id =
  match t.rollup with
  | None -> ()
  | Some r ->
      Jord_obsv.Rollup.advance r ~now_ps:at_ps;
      Jord_obsv.Rollup.observe r ~at_ps ~fn:t.entry_names.(entry) ~latency_ps ~shed
        ~trace_id

(* The "slo" always-keep rule: a completed request that violated any
   matching latency objective must survive sampling. *)
let slo_violating t ~fn ~latency_ps =
  List.exists
    (fun o ->
      o.Jord_obsv.Slo.kind = Jord_obsv.Slo.Latency
      && (match o.Jord_obsv.Slo.fn with None -> true | Some f -> f = fn)
      && latency_ps > o.Jord_obsv.Slo.threshold_ps)
    t.slo_objs

(* Build and record the request's span. Every phase comes from an
   independent measurement — the wire hops from the netmodel constant, the
   member-side split from the member's own clock, end-to-end from the
   balancer's — so Fspan.conservation_ok genuinely cross-checks the
   cross-shard message stamping. Returns the trace id (-1 untraced). *)
let record_span t ~tracer ~req ~user ~entry ~server ~hit ~outcome ~submit_ps
    ~end_ps ~queue_ps ~cold_ps ~service_ps =
  let fn = t.entry_names.(entry) in
  let phases = Array.make Jord_obsv.Fspan.phase_count 0 in
  let set ph v = phases.(Jord_obsv.Fspan.phase_index ph) <- v in
  (if outcome <> Jord_obsv.Fspan.Shed_lb then begin
     let ow = one_way t in
     set Jord_obsv.Fspan.Wire ow;
     set Jord_obsv.Fspan.Response_wire ow;
     set Jord_obsv.Fspan.Member_queue queue_ps;
     set Jord_obsv.Fspan.Cold_start cold_ps;
     set Jord_obsv.Fspan.Service service_ps
   end);
  let sp =
    {
      Jord_obsv.Fspan.req_id = req;
      user;
      fn;
      member = server;
      lb_hit = hit;
      cold = cold_ps > 0;
      outcome;
      submit_ps;
      end_ps;
      phases;
    }
  in
  let keep =
    match outcome with
    | Jord_obsv.Fspan.Shed_lb | Jord_obsv.Fspan.Shed_member -> Some "shed"
    | Jord_obsv.Fspan.Completed ->
        if slo_violating t ~fn ~latency_ps:(end_ps - submit_ps) then Some "slo"
        else if cold_ps > 0 then Some "cold-start"
        else None
  in
  Jord_obsv.Ftrace.record tracer ?keep sp;
  req

let set_state t s st =
  t.state.(s) <- st;
  Lb.set_routable t.lb s (st = Up)

let finish_drain t s =
  set_state t s Down;
  Lb.forget t.lb s

let complete t ~server ~entry ~submit_ps ~req ~user ~hit ~ok ~queue_ps ~cold_ps
    ~service_ps =
  Lb.complete t.lb server;
  t.outstanding_total <- t.outstanding_total - 1;
  let now = Engine.now t.engine in
  if ok then begin
    t.completed <- t.completed + 1;
    let lat = Time.( - ) now submit_ps in
    Sketch.add t.latency lat;
    let trace_id =
      match t.tracer with
      | None -> -1
      | Some tracer ->
          record_span t ~tracer ~req ~user ~entry ~server ~hit
            ~outcome:Jord_obsv.Fspan.Completed ~submit_ps ~end_ps:now ~queue_ps
            ~cold_ps ~service_ps
    in
    observe_rollup t ~at_ps:now ~entry ~latency_ps:lat ~shed:false ~trace_id
  end
  else begin
    t.server_shed <- t.server_shed + 1;
    (match t.tracer with
    | None -> ()
    | Some tracer ->
        ignore
          (record_span t ~tracer ~req ~user ~entry ~server ~hit
             ~outcome:Jord_obsv.Fspan.Shed_member ~submit_ps ~end_ps:now
             ~queue_ps:0 ~cold_ps:0 ~service_ps:0
            : int));
    observe_rollup t ~at_ps:now ~entry ~latency_ps:0 ~shed:true ~trace_id:(-1)
  end;
  if t.state.(server) = Draining && Lb.outstanding t.lb server = 0 then finish_drain t server

let route t ~user =
  (* Request ids are arrival indices: arrivals fire on the balancer engine
     in generation order, ahead of any same-instant event, so the numbering
     is identical at any shard count. *)
  let req = t.arrivals in
  t.arrivals <- t.arrivals + 1;
  let entry = entry_of_user t ~user in
  let now = Engine.now t.engine in
  let s = Lb.pick t.lb ~entry in
  if s < 0 then begin
    t.lb_shed <- t.lb_shed + 1;
    (match t.tracer with
    | None -> ()
    | Some tracer ->
        ignore
          (record_span t ~tracer ~req ~user ~entry ~server:(-1) ~hit:false
             ~outcome:Jord_obsv.Fspan.Shed_lb ~submit_ps:now ~end_ps:now
             ~queue_ps:0 ~cold_ps:0 ~service_ps:0
            : int));
    observe_rollup t ~at_ps:now ~entry ~latency_ps:0 ~shed:true ~trace_id:(-1)
  end
  else begin
    let hit = Lb.hit t.lb in
    if hit then t.affinity_hits <- t.affinity_hits + 1;
    t.routed <- t.routed + 1;
    Lb.route t.lb s;
    t.outstanding_total <- t.outstanding_total + 1;
    let ow = one_way t in
    to_server t ~server:s ~at:(Time.( + ) now ow) (fun seng ->
        Fserver.deliver t.members.(s) ~entry
          ~on_done:(fun ~ok ~queue_ps ~cold_ps ~service_ps ->
            let at = Time.( + ) (Engine.now seng) ow in
            to_lb t ~server:s ~at (fun _ ->
                complete t ~server:s ~entry ~submit_ps:now ~req ~user ~hit ~ok
                  ~queue_ps ~cold_ps ~service_ps)))
  end

(* --- autoscaling ------------------------------------------------------- *)

let sample_gauge t name =
  match Registry.find t.registry ~name ~labels:[] with
  | Some { Registry.value = Registry.Gauge_v v; _ } -> v
  | _ -> 0.0

let scale_up t spec k ~util =
  let before = t.up_count + t.booting_count in
  let now = Engine.now t.engine in
  let added = ref 0 in
  let i = ref 0 in
  while !added < k && !i < Array.length t.members do
    let s = !i in
    if t.state.(s) = Down then begin
      set_state t s Booting;
      t.booting_count <- t.booting_count + 1;
      t.boots <- t.boots + 1;
      incr added;
      (* The member cold-boots: its warm table is gone by the time it can
         receive traffic (the power-on message rides the wire; the first
         delivery arrives at least boot_us later). *)
      to_server t ~server:s ~at:(Time.( + ) now (one_way t)) (fun _ ->
          Fserver.power_on t.members.(s));
      Engine.schedule t.engine ~after:(Time.of_us spec.Autoscaler.boot_us) (fun _ ->
          if t.state.(s) = Booting then begin
            set_state t s Up;
            t.booting_count <- t.booting_count - 1;
            t.up_count <- t.up_count + 1;
            if t.up_count > t.up_max then t.up_max <- t.up_count
          end)
    end;
    incr i
  done;
  if !added > 0 then
    t.events <-
      {
        ev_at = now;
        ev_dir = `Up;
        ev_count = !added;
        ev_before = before;
        ev_after = before + !added;
        ev_util = util;
      }
      :: t.events

let scale_down t k ~util =
  let before = t.up_count + t.booting_count in
  let now = Engine.now t.engine in
  let drained = ref 0 in
  let i = ref (Array.length t.members - 1) in
  while !drained < k && !i >= 0 do
    let s = !i in
    if t.state.(s) = Up then begin
      set_state t s Draining;
      t.up_count <- t.up_count - 1;
      t.drains <- t.drains + 1;
      incr drained;
      if t.up_count < t.up_min then t.up_min <- t.up_count;
      if Lb.outstanding t.lb s = 0 then finish_drain t s
    end;
    decr i
  done;
  if !drained > 0 then
    t.events <-
      {
        ev_at = now;
        ev_dir = `Down;
        ev_count = !drained;
        ev_before = before;
        ev_after = before - !drained;
        ev_util = util;
      }
      :: t.events

let rec tick t spec ctl =
  let util = sample_gauge t "jord_fleet_utilization" in
  let queue = sample_gauge t "jord_fleet_queue_depth" in
  let up = int_of_float (sample_gauge t "jord_fleet_servers_up") in
  (match Autoscaler.decide ctl ~util ~queue ~up ~booting:t.booting_count with
  | Autoscaler.Hold -> ()
  | Autoscaler.Up k -> scale_up t spec k ~util
  | Autoscaler.Down k -> scale_down t k ~util);
  Engine.schedule t.engine ~after:(Time.of_us spec.Autoscaler.interval_us) (fun _ ->
      tick t spec ctl)

(* --- construction ------------------------------------------------------ *)

let register_metrics t =
  let r = t.registry in
  let slots = t.cfg.member.Fserver.slots in
  Registry.gauge_fn r ~help:"Routable fleet members" "jord_fleet_servers_up"
    (fun () -> float_of_int t.up_count);
  Registry.gauge_fn r ~help:"Members booting" "jord_fleet_servers_booting" (fun () ->
      float_of_int t.booting_count);
  Registry.gauge_fn r ~help:"In-flight requests over routable slot capacity"
    "jord_fleet_utilization" (fun () ->
      if t.up_count = 0 then 0.0
      else float_of_int t.outstanding_total /. float_of_int (t.up_count * slots));
  Registry.gauge_fn r ~help:"Requests waiting beyond the routable slots"
    "jord_fleet_queue_depth" (fun () ->
      float_of_int (max 0 (t.outstanding_total - (t.up_count * slots))));
  Array.iteri
    (fun i _ ->
      Registry.gauge_fn r ~help:"Member routable (1) or not (0)"
        ~labels:[ ("server", string_of_int i) ]
        "jord_server_up"
        (fun () -> if t.state.(i) = Up then 1.0 else 0.0))
    t.members;
  Registry.counter_fn r ~help:"Requests routed to a member" "jord_fleet_routed_total"
    (fun () -> float_of_int t.routed);
  Registry.counter_fn r ~help:"Requests completed" "jord_fleet_completed_total"
    (fun () -> float_of_int t.completed);
  Registry.counter_fn r ~help:"Requests shed (balancer + member queues)"
    "jord_fleet_shed_total" (fun () -> float_of_int (t.lb_shed + t.server_shed));
  Registry.counter_fn r ~help:"Cold starts paid by members"
    "jord_fleet_cold_starts_total" (fun () ->
      float_of_int (Array.fold_left (fun a m -> a + Fserver.cold_starts m) 0 t.members));
  Registry.counter_fn r ~help:"Autoscaler boot actions" "jord_fleet_scale_ups_total"
    (fun () -> float_of_int t.boots);
  Registry.counter_fn r ~help:"Autoscaler drain actions" "jord_fleet_scale_downs_total"
    (fun () -> float_of_int t.drains)

let create cfg ~app =
  if cfg.servers < 1 then invalid_arg "Fleet.create: servers must be >= 1";
  if cfg.shards < 1 then invalid_arg "Fleet.create: shards must be >= 1";
  (match Model.validate app with
  | Ok () -> ()
  | Error m -> invalid_arg ("Fleet.create: invalid app: " ^ m));
  let entries = Array.of_list app.Model.entries in
  let entry_names = Array.map fst entries in
  let entry_cum =
    let total = Array.fold_left (fun a (_, w) -> a +. w) 0.0 entries in
    let acc = ref 0.0 in
    Array.map
      (fun (_, w) ->
        acc := !acc +. (w /. total);
        !acc)
      entries
  in
  let service_tbl =
    Model.mean_service_ns app ~samples:cfg.service_samples ~seed:cfg.service_seed
  in
  let service_ns = Array.map (fun (name, _) -> List.assoc name service_tbl) entries in
  let n = cfg.servers in
  let eff_shards = if cfg.shards <= 1 then 1 else min cfg.shards (n + 1) in
  if eff_shards > 1 && Netmodel.lookahead cfg.net <= 0 then
    invalid_arg "Fleet.create: a sharded fleet needs positive wire latency";
  let sharded =
    if eff_shards <= 1 then None
    else begin
      let epochs =
        Jord_sim.Epoch.create ~shards:eff_shards ~lookahead:(Netmodel.lookahead cfg.net)
      in
      (* Shard 0 belongs to the balancer alone (it sees every request
         twice); members spread in blocks over shards 1..S-1. *)
      let shard_of = Array.init n (fun i -> 1 + (i * (eff_shards - 1) / n)) in
      Some { epochs; shard_of }
    end
  in
  let engine =
    match sharded with
    | None -> Engine.create ()
    | Some s -> Jord_sim.Epoch.engine s.epochs 0
  in
  let member_engine i =
    match sharded with
    | None -> engine
    | Some s -> Jord_sim.Epoch.engine s.epochs s.shard_of.(i)
  in
  let members =
    Array.init n (fun i ->
        Fserver.create ~engine:(member_engine i) ~id:i ~service_ns cfg.member)
  in
  let autoscale =
    match cfg.autoscale with
    | None -> None
    | Some spec -> (
        match Autoscaler.resolve spec ~fleet:n with
        | Ok spec -> Some (spec, Autoscaler.control spec)
        | Error m -> invalid_arg ("Fleet.create: " ^ m))
  in
  let initial_up =
    match autoscale with None -> n | Some (spec, _) -> spec.Autoscaler.min_servers
  in
  let state = Array.init n (fun i -> if i < initial_up then Up else Down) in
  let lb =
    Lb.create cfg.policy ~servers:n ~entries:(Array.length entries)
      ~spill:cfg.member.Fserver.slots
  in
  for i = initial_up to n - 1 do
    Lb.set_routable lb i false
  done;
  let t =
    {
      cfg;
      entry_names;
      entry_cum;
      sharded;
      engine;
      members;
      state;
      outstanding_total = 0;
      lb;
      autoscale;
      registry = Registry.create ();
      latency = Sketch.create ();
      rollup = None;
      tracer = None;
      slo_objs = [];
      arrivals = 0;
      routed = 0;
      affinity_hits = 0;
      completed = 0;
      lb_shed = 0;
      server_shed = 0;
      up_count = initial_up;
      booting_count = 0;
      up_min = initial_up;
      up_max = initial_up;
      boots = 0;
      drains = 0;
      events = [];
      traffic = None;
      duration_us = 0.0;
      ran = false;
    }
  in
  register_metrics t;
  t

(* --- running ----------------------------------------------------------- *)

let run ?(slo = []) ?tracer t ~shape ~duration_us =
  if t.ran then invalid_arg "Fleet.run: call once per fleet";
  t.ran <- true;
  if slo <> [] then t.rollup <- Some (Jord_obsv.Rollup.create slo);
  t.tracer <- tracer;
  t.slo_objs <- slo;
  (* Window exemplars flow rollup -> tracer so every exemplar id a verdict
     table names is pinned into the retained trace set. *)
  (match (t.rollup, tracer) with
  | Some r, Some tr ->
      Jord_obsv.Rollup.set_hook r (Jord_obsv.Ftrace.on_exemplar tr)
  | _ -> ());
  t.traffic <- Some shape;
  t.duration_us <- duration_us;
  (* Arrivals stream through the balancer engine's arrival lane, one
     pending at a time; each fires ahead of every other event at its
     instant, so their order is a pure function of the shape and the same
     at every shard count. *)
  Jord_workloads.Loadgen.stream_population ~engine:t.engine
    ~submit:(fun ~user -> route t ~user)
    ~shape ~duration_us;
  (match t.autoscale with
  | None -> ()
  | Some (spec, ctl) ->
      Engine.schedule t.engine ~after:(Time.of_us spec.Autoscaler.interval_us)
        (fun _ -> tick t spec ctl));
  let until = Time.of_us (3.0 *. duration_us) in
  (match t.sharded with
  | None -> Engine.run ~until t.engine
  | Some s ->
      let jobs = Jord_sim.Epoch.shards s.epochs in
      Jord_par.Pool.with_pool ~jobs (fun pool ->
          let runner f n =
            ignore (Jord_par.Pool.parmap pool f (List.init n Fun.id) : unit list)
          in
          Jord_sim.Epoch.run ~until ~runner s.epochs));
  match t.rollup with
  | Some r -> Jord_obsv.Rollup.finish r ~now_ps:until
  | None -> ()

(* --- results ----------------------------------------------------------- *)

let servers t = t.cfg.servers
let arrivals t = t.arrivals
let routed t = t.routed
let completed t = t.completed
let lb_shed t = t.lb_shed
let server_shed t = t.server_shed
let shed t = t.lb_shed + t.server_shed
let affinity_hits t = t.affinity_hits

let cold_starts t =
  Array.fold_left (fun a m -> a + Fserver.cold_starts m) 0 t.members

let boots t = t.boots
let drains t = t.drains
let up_now t = t.up_count
let up_range t = (t.up_min, t.up_max)
let outstanding_now t = t.outstanding_total

let events_processed t =
  match t.sharded with
  | None -> Engine.processed t.engine
  | Some s -> Jord_sim.Epoch.processed s.epochs

let scale_events t = List.rev t.events
let latency t = t.latency
let registry t = t.registry
let rollup t = t.rollup

let summary t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let m = t.cfg.member in
  add "== fleet run ==\n";
  (* No shard count here: the summary is the byte-identity witness across
     shard counts; jordctl reports shards on its wall-clock line. *)
  add "fleet:     servers=%d policy=%s slots=%d queue-cap=%d cold-start-us=%g\n"
    t.cfg.servers
    (Lb.to_string (Lb.policy t.lb))
    m.Fserver.slots m.Fserver.queue_cap
    (m.Fserver.cold_start_ns /. 1000.0);
  (match t.traffic with
  | Some shape ->
      add "traffic:   %s\n" (Traffic.describe shape);
      add "           arrivals=%d over %gus\n" t.arrivals t.duration_us
  | None -> ());
  (match t.autoscale with
  | Some (spec, _) ->
      add "autoscale: %s\n" (Autoscaler.describe spec);
      add "           boots=%d drains=%d up min=%d max=%d now=%d\n" t.boots t.drains
        t.up_min t.up_max t.up_count;
      let evs = scale_events t in
      if evs <> [] then begin
        add "scale events:\n";
        List.iter
          (fun e ->
            add "  t=%10.1fus %s %c%d (%d -> %d) util=%.2f\n"
              (Time.to_us e.ev_at)
              (match e.ev_dir with `Up -> "scale-up  " | `Down -> "scale-down")
              (match e.ev_dir with `Up -> '+' | `Down -> '-')
              e.ev_count e.ev_before e.ev_after e.ev_util)
          evs
      end
  | None -> add "autoscale: off (all %d servers up)\n" t.cfg.servers);
  let hit_pct =
    if t.routed = 0 then 0.0
    else 100.0 *. float_of_int t.affinity_hits /. float_of_int t.routed
  in
  add "balancer:  routed=%d affinity-hits=%d (%.1f%%) shed-at-lb=%d\n" t.routed
    t.affinity_hits hit_pct t.lb_shed;
  add "members:   completed=%d shed-at-member=%d cold-starts=%d in-flight=%d\n"
    t.completed t.server_shed (cold_starts t) t.outstanding_total;
  let q p = Time.to_us (Sketch.quantile t.latency p) in
  add "latency:   mean=%.2fus p50=%.2fus p90=%.2fus p99=%.2fus max=%.2fus\n"
    (Sketch.mean t.latency /. 1e6)
    (q 50.0) (q 90.0) (q 99.0)
    (Time.to_us (Sketch.max_v t.latency));
  Buffer.contents buf
