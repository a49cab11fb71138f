module Time = Jord_sim.Time
module Engine = Jord_sim.Engine
module Server = Jord_faas.Server
module Cluster = Jord_faas.Cluster

type t = {
  submit_fn : unit -> unit;
  prng : Jord_util.Prng.t;
  mean_gap_ns : float;
  stop_at : Time.t;
  mutable submitted : int;
}

let rec arrival t engine =
  if Engine.now engine <= t.stop_at then begin
    t.submit_fn ();
    t.submitted <- t.submitted + 1;
    let gap = Jord_util.Sample.exponential t.prng ~mean:t.mean_gap_ns in
    Engine.schedule engine ~after:(Time.of_ns gap) (arrival t)
  end

let start_on ~engine ~submit ~rate_mrps ~duration ~seed =
  if rate_mrps <= 0.0 then invalid_arg "Loadgen.start: rate";
  let t =
    {
      submit_fn = submit;
      prng = Jord_util.Prng.create ~seed;
      mean_gap_ns = 1000.0 /. rate_mrps;
      stop_at = Time.(Engine.now engine + duration);
      submitted = 0;
    }
  in
  let first = Jord_util.Sample.exponential t.prng ~mean:t.mean_gap_ns in
  Engine.schedule engine ~after:(Time.of_ns first) (arrival t);
  t

let start ~server ~rate_mrps ~duration ~seed =
  start_on ~engine:(Server.engine server)
    ~submit:(fun () -> Server.submit server ())
    ~rate_mrps ~duration ~seed

let submitted t = t.submitted

let run ?(warmup = 2000) ?tracer ?on_server ~app ~config ~rate_mrps ~duration_us
    ?(seed = 7) () =
  let server = Server.create config app in
  (match on_server with Some f -> f server | None -> ());
  (match tracer with Some tr -> Server.set_tracer server (Some tr) | None -> ());
  let recorder = Jord_metrics.Recorder.create ~warmup () in
  Server.on_root_complete server (Jord_metrics.Recorder.observe recorder);
  let duration = Time.of_us duration_us in
  let (_ : t) = start ~server ~rate_mrps ~duration ~seed in
  (* Let the server drain for at most 2x the arrival window after arrivals
     stop; under overload the unfinished tail simply goes unmeasured, while
     the measured completions already carry the queueing delay. *)
  Server.run ~until:(Time.of_us (3.0 *. duration_us)) server;
  (server, recorder)

(* Sharded clusters cannot take live submissions (an arrival closure would
   read one shard's clock mid-epoch), so the same Poisson process is drawn
   up front and pre-scheduled through {!Cluster.submit_at}. The draw
   sequence, arrival timestamps and round-robin assignment are identical
   to what {!start_on} produces event-by-event, and the live generator's
   final past-the-window no-op event is reproduced as a sentinel so the
   engines' processed-event tallies agree too. *)
let pregen_cluster ~cluster ~rate_mrps ~duration ~seed =
  if rate_mrps <= 0.0 then invalid_arg "Loadgen.start: rate";
  let prng = Jord_util.Prng.create ~seed in
  let mean_gap_ns = 1000.0 /. rate_mrps in
  let t =
    { submit_fn = (fun () -> ()); prng; mean_gap_ns; stop_at = duration; submitted = 0 }
  in
  let time = ref (Time.of_ns (Jord_util.Sample.exponential prng ~mean:mean_gap_ns)) in
  while !time <= t.stop_at do
    Cluster.submit_at cluster ~time:!time ();
    t.submitted <- t.submitted + 1;
    let gap = Jord_util.Sample.exponential prng ~mean:mean_gap_ns in
    time := Time.(!time + Time.of_ns gap)
  done;
  Engine.schedule_at (Cluster.engine cluster) ~time:!time (fun _ -> ());
  t

let run_cluster ?(warmup = 2000) ?tracer ?on_cluster ?forward_after ?(shards = 1)
    ~servers ~app ~config ~rate_mrps ~duration_us ?(seed = 7) () =
  let cluster = Cluster.create ?forward_after ~shards ~servers ~config app in
  (match on_cluster with Some f -> f cluster | None -> ());
  (match tracer with Some tr -> Cluster.set_tracer cluster (Some tr) | None -> ());
  let recorder = Jord_metrics.Recorder.create ~warmup () in
  Cluster.on_root_complete cluster (Jord_metrics.Recorder.observe recorder);
  let duration = Time.of_us duration_us in
  let (_ : t) =
    if Cluster.shards cluster > 1 then
      pregen_cluster ~cluster ~rate_mrps ~duration ~seed
    else
      start_on
        ~engine:(Cluster.engine cluster)
        ~submit:(fun () -> Cluster.submit cluster ())
        ~rate_mrps ~duration ~seed
  in
  Cluster.run ~until:(Time.of_us (3.0 *. duration_us)) cluster;
  (cluster, recorder)

(* Population traffic (fleet layer). Only one arrival is ever pending, so
   memory stays at the requests in flight whatever the run length; the
   arrival lane puts it ahead of every same-picosecond event, whenever that
   one was scheduled. The next arrival is armed before [submit] runs. *)
let stream_population ~engine ~submit ~shape ~duration_us =
  let stream = Traffic.make shape ~duration_us in
  let user = ref 0 in
  let rec fire _ =
    let u = !user in
    arm ();
    submit ~user:u
  and arm () =
    match Traffic.next stream with
    | Some a ->
        user := a.Traffic.user;
        Engine.schedule_arrival_at engine ~time:a.Traffic.at fire
    | None -> ()
  in
  arm ()

(* The same stream handed to the caller in one walk, with no engine. *)
let population ~submit ~shape ~duration_us () =
  let stream = Traffic.make shape ~duration_us in
  let rec go () =
    match Traffic.next stream with
    | Some { Traffic.at; user } ->
        submit ~time:at ~user;
        go ()
    | None -> ()
  in
  go ();
  Traffic.generated stream
