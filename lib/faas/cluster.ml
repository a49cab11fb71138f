module Engine = Jord_sim.Engine
module Time = Jord_sim.Time
module Plan = Jord_fault_inject.Plan
module Injector = Jord_fault_inject.Injector
module Invariant = Jord_fault_inject.Invariant

type peer_health = {
  mutable consecutive_timeouts : int;
  mutable dead_until : Time.t;  (** Quarantined until; [Time.zero] = healthy. *)
}

type net_stats = {
  mutable xfers : int;
  mutable wire_copies : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable dup_dropped : int;
  mutable delivered : int;
  mutable dropped_down : int;
  mutable acked : int;
  mutable retries : int;
  mutable abandoned : int;
  mutable failover : int;
  mutable no_healthy_peer : int;
  mutable peers_marked_dead : int;
  mutable peers_unquarantined : int;
}

let zero_stats () =
  {
    xfers = 0;
    wire_copies = 0;
    lost = 0;
    duplicated = 0;
    dup_dropped = 0;
    delivered = 0;
    dropped_down = 0;
    acked = 0;
    retries = 0;
    abandoned = 0;
    failover = 0;
    no_healthy_peer = 0;
    peers_marked_dead = 0;
    peers_unquarantined = 0;
  }

(* One forwarded request in flight: attempts, the ack-timeout timer, and
   the current target (re-picked on retry, so a dead peer is routed
   around). *)
type xfer = {
  xid : int;
  req : Request.t;
  src : int;
  mutable target : int;
  mutable attempt : int;
  mutable timer : Engine.handle;
  mutable closed : bool;
}

(* Chaos state is sharded the same way the servers are: every field is
   owned by exactly one server (and therefore one shard). Source-side
   state — the fault sub-stream, transfer ids, timers, health rows,
   retry/abandon counters — lives with the forwarding server; delivery-side
   state — the dedup table, delivered/dup/down-drop counters — with the
   target. Cross-server events (copies, acks) travel through the shard
   mailboxes like any other wire traffic, so any fault plan replays
   byte-identically at every shard count. *)
type chaos = {
  injs : Injector.t array;
      (** Per-source wire fault sub-streams ([Injector.for_sid]): draws are
          shard-local and independent of cross-server interleaving. *)
  recovery : Recovery.t;
  stats : net_stats array;
      (** Per-server; source-side counters accumulate in [stats.(src)],
          delivery-side ones in [stats.(target)]. Aggregated on read. *)
  health : peer_health array array;  (** [health.(src).(dst)]; src-owned. *)
  seen : (int, unit) Hashtbl.t array;
      (** Per-target delivered transfer ids; touched only on the target's
          shard. *)
  next_xid : int array;
      (** Per-source id allocator, strided by server count so transfer ids
          stay globally unique without shared state. *)
  pending : int array;  (** Per-source open transfers. *)
  backoff_bufs : (Time.t * float) list ref array;
      (** Sharded mode: per-source backoff observations (reversed), flushed
          to [on_retry_backoff] in canonical (time, src) order after the
          run; sequential mode calls the hook inline. *)
  mutable on_retry_backoff : float -> unit;
}

(* Sharded (conservative parallel) mode: servers are partitioned over
   [Jord_sim.Epoch] shards, each with a private engine; cross-shard
   forwards and responses travel through the shard mailboxes. Observables
   that the sequential cluster produced in one global event order —
   completion callbacks and trace events — are buffered per server and
   replayed in canonical (time, sid) order after the run, which is exactly
   the sequential order whenever no two servers act at the same picosecond
   (the golden suite pins this byte-for-byte). *)
type sharded = {
  epochs : Jord_sim.Epoch.t;
  shard_of : int array;  (** server index -> shard index. *)
  done_bufs : Request.root list ref array;  (** per-server completions. *)
  mutable member_traces : Trace.t array;  (** per-server rings when tracing. *)
  mutable user_tracer : Trace.t option;
  mutable user_root_cb : Request.root -> unit;
}

type t = {
  engine : Jord_sim.Engine.t;
      (** Single mode: the shared engine. Sharded: shard 0's engine, whose
          clock gives end-of-run timestamps (every shard's [now] agrees at
          the horizon). *)
  sharded : sharded option;
  servers : Server.t array;
  net : Netmodel.t;
  chaos : chaos option;
  mutable rr : int;
}

(* --- chaos transport: ack-and-timeout retry over a faulty wire ---

   Data copies are subject to loss/duplication/jitter; acks are modelled
   as reliable and jitter-free control traffic. The ack timeout strictly
   exceeds [2 * one_way + max_jitter], so by the time a timer fires every
   surviving copy has been delivered and acked — a timeout therefore
   proves total loss, which is what makes retrying (and eventually
   re-executing locally) safe from double execution. Receivers deduplicate
   by transfer id, so a duplicated wire copy can never deliver twice. *)

let one_way_ns t = Netmodel.one_way_ns t.net

let timeout_ns t ch =
  (2.0 *. one_way_ns t) +. Injector.max_jitter_ns ch.injs.(0)
  +. ch.recovery.Recovery.retry_base_ns

(* Schedule [fn] at absolute time [at] as seen from server [src]: a plain
   engine event when [dst] shares [src]'s engine (sequential mode, or
   co-sharded servers), a mailbox post otherwise. Every chaos wire event is
   at least [one_way] in the future, so the lookahead contract holds. *)
let post t ~src ~dst ~at fn =
  match t.sharded with
  | Some s when s.shard_of.(src) <> s.shard_of.(dst) ->
      Jord_sim.Shard.post
        (Jord_sim.Epoch.shard s.epochs s.shard_of.(src))
        ~dst:s.shard_of.(dst) ~at ~sid:src fn
  | Some _ | None ->
      Engine.schedule_at (Server.engine t.servers.(src)) ~time:at fn

(* First non-quarantined peer in ring order after [src]; when every peer is
   quarantined, fall back to the ring successor (the transfer probes it). *)
let pick_peer t ch ~src ~now =
  let n = Array.length t.servers in
  let rec go k =
    if k >= n then None
    else
      let j = (src + k) mod n in
      if now >= ch.health.(src).(j).dead_until then Some j else go (k + 1)
  in
  match go 1 with
  | Some j -> j
  | None ->
      ch.stats.(src).no_healthy_peer <- ch.stats.(src).no_healthy_peer + 1;
      (src + 1) mod n

(* Runs on the source's shard (the ack travels back through the mailbox). *)
let ack t ch xfer =
  if not xfer.closed then begin
    xfer.closed <- true;
    let st = ch.stats.(xfer.src) in
    ch.pending.(xfer.src) <- ch.pending.(xfer.src) - 1;
    ignore (Engine.cancel (Server.engine t.servers.(xfer.src)) xfer.timer);
    st.acked <- st.acked + 1;
    let h = ch.health.(xfer.src).(xfer.target) in
    if h.dead_until > Time.zero then
      (* A quarantined peer answered its probe: back in the rotation. *)
      st.peers_unquarantined <- st.peers_unquarantined + 1;
    h.consecutive_timeouts <- 0;
    h.dead_until <- Time.zero
  end

(* Runs on the target's shard. *)
let deliver t ch xfer =
  let tgt = xfer.target in
  let st = ch.stats.(tgt) in
  if Server.is_down t.servers.(tgt) then
    (* The machine is dark (whole-server crash window): the copy reaches a
       dead NIC. No ack and no dedup mark, so the source's timer fires,
       the health row trips, and the transfer fails over to the next
       healthy peer — provably without double execution, exactly as for a
       lost copy. *)
    st.dropped_down <- st.dropped_down + 1
  else if Hashtbl.mem ch.seen.(tgt) xfer.xid then begin
    st.dup_dropped <- st.dup_dropped + 1;
    Server.note_duplicate t.servers.(tgt) xfer.req
  end
  else begin
    Hashtbl.add ch.seen.(tgt) xfer.xid ();
    st.delivered <- st.delivered + 1;
    Server.receive_forwarded t.servers.(tgt) xfer.req;
    let at = Time.(Engine.now (Server.engine t.servers.(tgt)) + Netmodel.one_way t.net) in
    post t ~src:tgt ~dst:xfer.src ~at (fun _ -> ack t ch xfer)
  end

let rec send_attempt t ch xfer =
  let src_eng = Server.engine t.servers.(xfer.src) in
  let now = Engine.now src_eng in
  let st = ch.stats.(xfer.src) in
  xfer.attempt <- xfer.attempt + 1;
  let w = Injector.draw_wire ch.injs.(xfer.src) in
  st.wire_copies <- st.wire_copies + 1;
  if w.Injector.lost then st.lost <- st.lost + 1
  else
    post t ~src:xfer.src ~dst:xfer.target
      ~at:Time.(now + Time.of_ns (one_way_ns t +. w.Injector.jitter_ns))
      (fun _ -> deliver t ch xfer);
  if w.Injector.duplicated then begin
    st.wire_copies <- st.wire_copies + 1;
    st.duplicated <- st.duplicated + 1;
    post t ~src:xfer.src ~dst:xfer.target
      ~at:Time.(now + Time.of_ns (one_way_ns t +. w.Injector.dup_jitter_ns))
      (fun _ -> deliver t ch xfer)
  end;
  xfer.timer <-
    Engine.schedule_handle src_eng
      ~after:(Time.of_ns (timeout_ns t ch))
      (fun _ -> on_timeout t ch xfer)

and on_timeout t ch xfer =
  if not xfer.closed then begin
    let now = Engine.now (Server.engine t.servers.(xfer.src)) in
    let st = ch.stats.(xfer.src) in
    let h = ch.health.(xfer.src).(xfer.target) in
    h.consecutive_timeouts <- h.consecutive_timeouts + 1;
    if
      h.consecutive_timeouts >= ch.recovery.Recovery.health_threshold
      && now >= h.dead_until
    then begin
      (* Quarantine the peer; after probe_us one transfer may probe it. *)
      h.dead_until <- Time.(now + Time.of_us ch.recovery.Recovery.probe_us);
      st.peers_marked_dead <- st.peers_marked_dead + 1
    end;
    if xfer.attempt >= ch.recovery.Recovery.retry_max then begin
      (* Give up on the wire: every copy was provably lost (or reached a
         dead machine), so the source re-executes the request locally — no
         double execution possible. *)
      xfer.closed <- true;
      ch.pending.(xfer.src) <- ch.pending.(xfer.src) - 1;
      st.abandoned <- st.abandoned + 1;
      Server.note_forward_abandoned t.servers.(xfer.src) xfer.req;
      Server.receive_forwarded t.servers.(xfer.src) xfer.req
    end
    else begin
      st.retries <- st.retries + 1;
      let back = Recovery.backoff_ns ch.recovery (xfer.attempt - 1) in
      (match t.sharded with
      | None -> ch.on_retry_backoff back
      | Some _ ->
          ch.backoff_bufs.(xfer.src) :=
            (now, back) :: !(ch.backoff_bufs.(xfer.src)));
      let next = pick_peer t ch ~src:xfer.src ~now in
      (* Re-routing an orphaned transfer away from a dead peer. *)
      if next <> xfer.target then st.failover <- st.failover + 1;
      xfer.target <- next;
      Engine.schedule
        (Server.engine t.servers.(xfer.src))
        ~after:(Time.of_ns back)
        (fun _ -> send_attempt t ch xfer)
    end
  end

let start_xfer t ch ~src req =
  let now = Engine.now (Server.engine t.servers.(src)) in
  let xfer =
    {
      xid = ch.next_xid.(src);
      req;
      src;
      target = pick_peer t ch ~src ~now;
      attempt = 0;
      timer = Engine.none_handle;
      closed = false;
    }
  in
  ch.next_xid.(src) <- ch.next_xid.(src) + Array.length t.servers;
  ch.stats.(src).xfers <- ch.stats.(src).xfers + 1;
  ch.pending.(src) <- ch.pending.(src) + 1;
  send_attempt t ch xfer

let create ?(forward_after = 3) ?(shards = 1) ~servers:n ~config app =
  if n < 1 then invalid_arg "Cluster.create";
  if shards < 1 then invalid_arg "Cluster.create: shards must be positive";
  (* More shards than servers would leave empty engines; clamp so
     [--shards 8] on a 3-server cluster means one server per shard. *)
  let eff_shards = Int.min shards n in
  let config = { config with Server.forward_after } in
  (* One-way latency between servers (top-of-rack switch) comes from the
     servers' own network model, so wire and serialization costs share a
     single source of truth. *)
  let net_one_way = Netmodel.one_way config.Server.net in
  let sharded =
    if eff_shards <= 1 then None
    else begin
      let lookahead = Netmodel.lookahead config.Server.net in
      if lookahead <= 0 then
        invalid_arg "Cluster.create: sharding requires a positive one_way_ns";
      let epochs = Jord_sim.Epoch.create ~shards:eff_shards ~lookahead in
      Some
        {
          epochs;
          (* Contiguous block partition: server i on shard i*S/n, so ring
             neighbours mostly share a shard and the id -> shard map is
             stable under any server count. *)
          shard_of = Array.init n (fun i -> i * eff_shards / n);
          done_bufs = Array.init n (fun _ -> ref []);
          member_traces = [||];
          user_tracer = None;
          user_root_cb = (fun _ -> ());
        }
    end
  in
  let engine =
    match sharded with
    | None -> Jord_sim.Engine.create ()
    | Some s -> Jord_sim.Epoch.engine s.epochs 0
  in
  let servers = Array.init n (fun i ->
      let engine =
        match sharded with
        | None -> engine
        | Some s -> Jord_sim.Epoch.engine s.epochs s.shard_of.(i)
      in
      Server.create ~engine { config with Server.seed = config.Server.seed + i } app)
  in
  Array.iteri (fun i s -> Server.set_sid s i) servers;
  let chaos =
    match config.Server.fault_plan with
    | None -> None
    | Some plan ->
        Some
          {
            (* Per-source wire sub-streams, decorrelated from the servers'
               own executor fault streams by the historical wire salt. *)
            injs = Array.init n (fun i -> Injector.for_sid plan ~sid:(7919 + i));
            recovery = config.Server.recovery;
            stats = Array.init n (fun _ -> zero_stats ());
            health =
              Array.init n (fun _ ->
                  Array.init n (fun _ ->
                      { consecutive_timeouts = 0; dead_until = Time.zero }));
            seen = Array.init n (fun _ -> Hashtbl.create 256);
            next_xid = Array.init n Fun.id;
            pending = Array.make n 0;
            backoff_bufs = Array.init n (fun _ -> ref []);
            on_retry_backoff = (fun _ -> ());
          }
  in
  let t =
    {
      engine;
      sharded;
      servers;
      net = config.Server.net;
      chaos;
      rr = 0;
    }
  in
  (match chaos with
  | None ->
      (* Fault-free wire: forward to the next server in the ring,
         fire-and-forget, delivery after the wire latency — byte-identical
         to the historical (golden) behaviour. A cross-shard hop is the
         same wire, but the delivery event travels through the shard
         mailbox instead of being scheduled directly: the wire latency is
         exactly the epoch loop's lookahead, so the timestamp always satisfies
         the conservative contract. *)
      Array.iteri
        (fun i server ->
          if n > 1 then
            Server.set_forward server
              (Some
                 (fun req ->
                   let j = (i + 1) mod n in
                   let target = servers.(j) in
                   match sharded with
                   | Some s when s.shard_of.(i) <> s.shard_of.(j) ->
                       let src = Jord_sim.Epoch.shard s.epochs s.shard_of.(i) in
                       let at =
                         Time.(Engine.now (Server.engine server) + net_one_way)
                       in
                       Jord_sim.Shard.post src ~dst:s.shard_of.(j) ~at ~sid:i
                         (fun _ -> Server.receive_forwarded target req)
                   | Some _ | None ->
                       Jord_sim.Engine.schedule (Server.engine server)
                         ~after:net_one_way (fun _ ->
                           Server.receive_forwarded target req))))
        servers
  | Some ch ->
      (* Chaos wire: health-aware peer choice, ack-and-timeout retries with
         capped exponential backoff, local re-execution after retry_max. *)
      Array.iteri
        (fun i server ->
          if n > 1 then
            Server.set_forward server (Some (fun req -> start_xfer t ch ~src:i req)))
        servers);
  (match sharded with
  | None -> ()
  | Some s ->
      Array.iteri
        (fun i server ->
          (* Responses for forwarded requests go home via the mailbox when
             home and current server live on different shards; the response
             delay is at least [response_ns >= one_way_ns], so the
             lookahead contract holds by the same argument as forwards. *)
          Server.set_route_return server
            (Some
               (fun req ~at fn ->
                 let dst = s.shard_of.(req.Request.home_sid) in
                 if dst = s.shard_of.(i) then
                   Jord_sim.Engine.schedule_at (Server.engine server) ~time:at fn
                 else
                   Jord_sim.Shard.post
                     (Jord_sim.Epoch.shard s.epochs s.shard_of.(i))
                     ~dst ~at ~sid:i fn));
          (* Completions are buffered per server and replayed in canonical
             (completed_at, sid) order after the run (see [run]). *)
          Server.on_root_complete server (fun root ->
              s.done_bufs.(i) := root :: !(s.done_bufs.(i))))
        servers);
  t

let engine t = t.engine
let servers t = t.servers

let set_tracer t tr =
  let n = Array.length t.servers in
  match t.sharded with
  | Some s ->
      (* Per-shard engines cannot share one ring mid-run (parallel writers,
         interleaved order); each server gets a private ring of the user's
         capacity and [run] merges them into the user tracer afterwards in
         canonical (at_ps, sid) order. *)
      s.user_tracer <- tr;
      (match tr with
      | None ->
          s.member_traces <- [||];
          Array.iteri
            (fun i sv ->
              Server.set_tracer sv None;
              Server.set_trace_sid sv i)
            t.servers
      | Some user ->
          let cap = Trace.capacity user in
          s.member_traces <- Array.init n (fun _ -> Trace.create ~capacity:cap ());
          Array.iteri
            (fun i sv ->
              Server.set_tracer sv (Some s.member_traces.(i));
              Server.set_trace_sid sv i;
              Server.set_req_id_space sv ~base:i ~stride:n)
            t.servers)
  | None ->
      Array.iteri
        (fun i s ->
          Server.set_tracer s tr;
          Server.set_trace_sid s i;
          (* Disjoint request-id spaces: a shared tracer must never see two
             servers' requests under one id. Only done when tracing, so
             untraced runs keep the historical id sequence. *)
          if tr <> None then Server.set_req_id_space s ~base:i ~stride:n)
        t.servers

let submit t ?entry () =
  if t.sharded <> None then
    invalid_arg "Cluster.submit: a sharded cluster takes arrivals from Loadgen.run_cluster";
  let server = t.servers.(t.rr mod Array.length t.servers) in
  t.rr <- t.rr + 1;
  Server.submit server ?entry ()

let on_root_complete t f =
  match t.sharded with
  | Some s -> s.user_root_cb <- f
  | None -> Array.iter (fun s -> Server.on_root_complete s f) t.servers

(* Replay the sharded run's buffered observables in one canonical global
   order: completions by (completed_at, sid), trace events by (at_ps, sid).
   Whenever no two servers act on the same picosecond — true of the golden
   scenarios — this is exactly the order the sequential cluster produced
   them in, which is what makes shard counts observationally equivalent. *)
let finalize_sharded s =
  let completions =
    Array.to_list s.done_bufs
    |> List.mapi (fun i buf ->
           let roots = List.rev !buf in
           buf := [];
           List.map (fun r -> (i, r)) roots)
    |> List.concat
    |> List.stable_sort (fun (i, (a : Request.root)) (j, b) ->
           match compare a.Request.completed_at b.Request.completed_at with
           | 0 -> Int.compare i j
           | c -> c)
  in
  List.iter (fun (_, r) -> s.user_root_cb r) completions;
  match s.user_tracer with
  | None -> ()
  | Some user ->
      Array.to_list s.member_traces
      |> List.map Trace.events
      |> List.concat
      |> List.stable_sort (fun (a : Trace.event) b ->
             match Int.compare a.Trace.at_ps b.Trace.at_ps with
             | 0 -> Int.compare a.Trace.sid b.Trace.sid
             | c -> c)
      |> List.iter (Trace.emit_event user);
      Array.iter Trace.clear s.member_traces

let run ?until t =
  match t.sharded with
  | None -> Jord_sim.Engine.run ?until t.engine
  | Some s ->
      let jobs = Jord_sim.Epoch.shards s.epochs in
      Jord_par.Pool.with_pool ~jobs (fun pool ->
          let runner f n =
            ignore
              (Jord_par.Pool.parmap pool f (List.init n Fun.id) : unit list)
          in
          Jord_sim.Epoch.run ?until ~runner s.epochs);
      finalize_sharded s;
      (* Replay the buffered backoff observations into the histogram hook
         in canonical (time, src) order — the same merge rule as traces and
         completions, so the observed sequence matches shards 1. *)
      (match t.chaos with
      | None -> ()
      | Some ch ->
          Array.to_list ch.backoff_bufs
          |> List.mapi (fun i buf ->
                 let obs = List.rev !buf in
                 buf := [];
                 List.map (fun (at, ns) -> (at, i, ns)) obs)
          |> List.concat
          |> List.stable_sort (fun (a, i, _) (b, j, _) ->
                 match compare (a : Time.t) b with
                 | 0 -> Int.compare i j
                 | c -> c)
          |> List.iter (fun (_, _, ns) -> ch.on_retry_backoff ns))

let shards t =
  match t.sharded with None -> 1 | Some s -> Jord_sim.Epoch.shards s.epochs

let events_processed t =
  match t.sharded with
  | None -> Jord_sim.Engine.processed t.engine
  | Some s -> Jord_sim.Epoch.processed s.epochs

let forwarded t =
  Array.fold_left (fun acc s -> acc + Server.forwarded_out s) 0 t.servers

(* Cluster-wide aggregate of the per-server chaos counters. *)
let agg_stats ch =
  let a = zero_stats () in
  Array.iter
    (fun s ->
      a.xfers <- a.xfers + s.xfers;
      a.wire_copies <- a.wire_copies + s.wire_copies;
      a.lost <- a.lost + s.lost;
      a.duplicated <- a.duplicated + s.duplicated;
      a.dup_dropped <- a.dup_dropped + s.dup_dropped;
      a.delivered <- a.delivered + s.delivered;
      a.dropped_down <- a.dropped_down + s.dropped_down;
      a.acked <- a.acked + s.acked;
      a.retries <- a.retries + s.retries;
      a.abandoned <- a.abandoned + s.abandoned;
      a.failover <- a.failover + s.failover;
      a.no_healthy_peer <- a.no_healthy_peer + s.no_healthy_peer;
      a.peers_marked_dead <- a.peers_marked_dead + s.peers_marked_dead;
      a.peers_unquarantined <- a.peers_unquarantined + s.peers_unquarantined)
    ch.stats;
  a

let net_stats t = Option.map agg_stats t.chaos

let pending_transfers t =
  match t.chaos with
  | Some ch -> Array.fold_left ( + ) 0 ch.pending
  | None -> 0

let conservation t =
  Array.fold_left
    (fun acc s -> Invariant.add acc (Server.conservation s))
    Invariant.zero t.servers

let check_invariants t =
  let tally = conservation t in
  let errs = ref (Invariant.check tally) in
  let fail fmt = Printf.ksprintf (fun m -> errs := !errs @ [ m ]) fmt in
  (match t.chaos with
  | None -> ()
  | Some ch ->
      let s = agg_stats ch in
      let pend = pending_transfers t in
      if s.xfers <> s.acked + s.abandoned + pend then
        fail "transfer balance: %d transfers but %d acked + %d abandoned + %d pending"
          s.xfers s.acked s.abandoned pend;
      if tally.Invariant.drained then begin
        if pend <> 0 then fail "drained but %d transfers still pending" pend;
        if s.wire_copies <> s.lost + s.delivered + s.dup_dropped + s.dropped_down
        then
          fail
            "wire balance: %d copies but %d lost + %d delivered + %d deduplicated \
             + %d dropped at down servers"
            s.wire_copies s.lost s.delivered s.dup_dropped s.dropped_down
      end);
  !errs

(* Per-server instances of every family, distinguished by a server=<i>
   label (the observability layer's instance convention). *)
let register_metrics t ?(labels = []) reg =
  Array.iteri
    (fun i s ->
      Server.register_metrics s ~labels:(labels @ [ ("server", string_of_int i) ]) reg)
    t.servers;
  match t.chaos with
  | None -> ()
  | Some ch ->
      let open Jord_telemetry.Registry in
      let c name help fn =
        counter_fn reg ~help ~labels name (fun () ->
            float_of_int (fn (agg_stats ch)))
      in
      c "jord_net_transfers_total" "Forwarded transfers started" (fun s -> s.xfers);
      c "jord_net_wire_copies_total" "Wire copies sent (retries + duplicates)"
        (fun s -> s.wire_copies);
      c "jord_net_lost_total" "Wire copies lost" (fun s -> s.lost);
      c "jord_net_duplicated_total" "Wire copies duplicated in flight" (fun s ->
          s.duplicated);
      c "jord_net_dup_dropped_total" "Duplicate deliveries deduplicated" (fun s ->
          s.dup_dropped);
      c "jord_net_dropped_down_total"
        "Wire copies that reached a crashed (down) server" (fun s ->
          s.dropped_down);
      c "jord_net_retries_total" "Transfer retries after an ack timeout" (fun s ->
          s.retries);
      c "jord_net_abandoned_total" "Transfers given up and re-executed locally"
        (fun s -> s.abandoned);
      c "jord_failover_total"
        "Transfers re-routed to a different peer after a timeout" (fun s ->
          s.failover);
      c "jord_net_peers_marked_dead_total"
        "Peer quarantines after consecutive timeouts" (fun s ->
          s.peers_marked_dead);
      c "jord_net_peers_unquarantined_total"
        "Quarantined peers that answered a probe and rejoined the ring"
        (fun s -> s.peers_unquarantined);
      let backoff_h =
        histogram reg ~help:"Transfer retry backoff intervals (ns)" ~labels
          "jord_net_retry_backoff_ns"
      in
      ch.on_retry_backoff <- (fun ns -> Hist.observe backoff_h ns)

let attach_sampler t ?(labels = []) sampler =
  Array.iteri
    (fun i s ->
      Server.attach_sampler s ~labels:(labels @ [ ("server", string_of_int i) ]) sampler)
    t.servers
