module Time = Jord_sim.Time
module Engine = Jord_sim.Engine
module Server = Jord_faas.Server
module Cluster = Jord_faas.Cluster

(* An arrival process: [walk ()] starts a fresh walk of its arrival times,
   counted from the stream's start. The arrivals up to [window] are
   submitted; with [tail] the first one past it fires as a no-op, the last
   event of a live generator. *)
type t = { walk : unit -> unit -> Time.t; window : Time.t; tail : bool }

let poisson ~rate_mrps ~duration ~seed =
  if rate_mrps <= 0.0 then invalid_arg "Loadgen.start: rate";
  let mean = 1000.0 /. rate_mrps in
  let walk () =
    let prng = Jord_util.Prng.create ~seed and at = ref Time.zero in
    fun () ->
      at := Time.(!at + of_ns (Jord_util.Sample.exponential prng ~mean));
      !at
  in
  { walk; window = duration; tail = true }

(* The one arming loop. Arrival [k] goes to [servers.(k mod n)]. The first
   server on each engine starts that engine's source: a private walk of the
   same times that arms, in the engine's arrival lane, only the arrivals
   whose target runs there, one pending at a time. *)
let drive servers t =
  let n = Array.length servers and engines = Array.map Server.engine servers in
  let from = Engine.now engines.(0) in
  let stop_at = Time.(from + t.window) in
  Array.iteri
    (fun i engine ->
      if not (Array.exists (( == ) engine) (Array.sub engines 0 i)) then begin
        let next = t.walk () and k = ref 0 and target = ref 0 in
        let rec fire _ =
          let server = servers.(!target) in
          arm ();
          Server.submit server ()
        and arm () =
          let j = !k mod n and time = Time.(from + next ()) in
          incr k;
          let mine = engines.(j) == engine in
          if time > stop_at then begin
            if t.tail && mine then Engine.schedule_arrival_at engine ~time ignore
          end
          else if mine then begin
            target := j;
            Engine.schedule_arrival_at engine ~time fire
          end
          else arm ()
        in
        arm ()
      end)
    engines

let start ~server ~rate_mrps ~duration ~seed =
  let t = poisson ~rate_mrps ~duration ~seed in
  drive [| server |] t;
  t

let fixed_gaps servers ~arrivals ~gap_ns =
  if gap_ns <= 0.0 then invalid_arg "Loadgen.fixed_gaps: gap";
  let at k = Time.of_ns (float_of_int k *. gap_ns) in
  let walk () =
    let k = ref (-1) in
    fun () ->
      incr k;
      at !k
  in
  drive servers { walk; window = at (arrivals - 1); tail = false }

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

let run_cluster ?(warmup = 2000) ?tracer ?on_cluster ?forward_after ?(shards = 1)
    ~servers ~app ~config ~rate_mrps ~duration_us ?(seed = 7) () =
  let cluster = Cluster.create ?forward_after ~shards ~servers ~config app in
  (match on_cluster with Some f -> f cluster | None -> ());
  (match tracer with Some tr -> Cluster.set_tracer cluster (Some tr) | None -> ());
  let recorder = Jord_metrics.Recorder.create ~warmup () in
  Cluster.on_root_complete cluster (Jord_metrics.Recorder.observe recorder);
  drive (Cluster.servers cluster)
    (poisson ~rate_mrps ~duration:(Time.of_us duration_us) ~seed);
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
