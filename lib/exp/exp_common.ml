module Server = Jord_faas.Server
module Variant = Jord_faas.Variant

type spec = {
  name : string;
  app : Jord_faas.Model.app;
  rates : float list;
  min_rate : float;
  duration_us : float;
  warmup : int;
}

let hipster =
  {
    name = "Hipster";
    app = Jord_workloads.Hipster.app;
    rates = [ 1.0; 2.0; 4.0; 5.0; 6.0; 7.0; 8.0; 8.5; 9.0; 9.5; 10.0; 11.0; 12.0; 14.0; 16.0 ];
    min_rate = 0.5;
    duration_us = 3000.0;
    warmup = 500;
  }

let hotel =
  {
    name = "Hotel";
    app = Jord_workloads.Hotel.app;
    rates = [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 6.5; 7.0; 7.5; 8.0 ];
    min_rate = 0.3;
    duration_us = 3500.0;
    warmup = 500;
  }

let media =
  {
    name = "Media";
    app = Jord_workloads.Media.app;
    rates = [ 0.5; 1.0; 1.5; 2.0; 2.5; 3.0; 3.5; 4.0; 4.5; 5.0 ];
    min_rate = 0.25;
    duration_us = 4000.0;
    warmup = 400;
  }

let social =
  {
    name = "Social";
    app = Jord_workloads.Social.app;
    rates = [ 0.2; 0.4; 0.6; 0.8; 0.9; 1.0; 1.1; 1.2; 1.4 ];
    min_rate = 0.1;
    duration_us = 16000.0;
    warmup = 300;
  }

let all = [ hipster; hotel; media; social ]

(* Six async leaves per entry: on a small machine with tight queues, the
   recipe for internal requests that cannot be placed locally. *)
let fanout_app =
  let open Jord_faas.Model in
  let leaf =
    {
      name = "leaf";
      make_phases = (fun _ -> [ compute 2000.0 ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ ->
          List.init 6 (fun _ -> invoke ~mode:Async ~arg_bytes:256 "leaf") @ [ wait ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  { app_name = "fanout"; fns = [ entry; leaf ]; entries = [ ("entry", 1.0) ] }

let scale f spec =
  {
    spec with
    duration_us = spec.duration_us *. f;
    warmup = Int.max 50 (int_of_float (float_of_int spec.warmup *. Float.min 1.0 f));
  }

let config_for variant = { Server.default_config with Server.variant }

(* --- domain-parallel execution of independent simulation points ---

   Every sweep point is a whole seeded simulation with its own engine and
   PRNGs, so points are embarrassingly parallel. [par_map] fans them out on
   the shared Jord_par pool; results come back in submission order, which
   keeps every figure (and the golden file) bit-identical to a sequential
   run. The only cross-point state, [slo_cache] and [metrics_sink], is
   written exclusively from the calling domain / to per-point files. *)

let set_jobs n = Jord_par.Pool.set_default_jobs n
let jobs () = Jord_par.Pool.default_jobs ()
let par_map f xs = Jord_par.Pool.parmap (Jord_par.Pool.default ()) f xs

(* When set (bench --metrics-dir), every simulated point dumps its machine
   counters through this sink, named after the figure point. *)
let metrics_sink : (name:string -> Jord_telemetry.Registry.t -> unit) option ref =
  ref None

let point_name spec ~config ~rate_mrps ~seed_offset =
  Printf.sprintf "%s_%s_r%g%s"
    (String.lowercase_ascii spec.name)
    (Variant.name config.Server.variant)
    rate_mrps
    (if seed_offset = 0 then "" else Printf.sprintf "_s%d" seed_offset)

let run_point ?(seed_offset = 0) spec ~config ~rate_mrps =
  let config = { config with Server.seed = config.Server.seed + (1000 * seed_offset) } in
  let server, recorder =
    Jord_workloads.Loadgen.run ~warmup:spec.warmup ~app:spec.app ~config ~rate_mrps
      ~duration_us:spec.duration_us ~seed:(7 + (100 * seed_offset)) ()
  in
  (match !metrics_sink with
  | None -> ()
  | Some sink ->
      let reg = Jord_telemetry.Registry.create () in
      Server.register_metrics server reg;
      sink ~name:(point_name spec ~config ~rate_mrps ~seed_offset) reg);
  (server, recorder)

let slo_cache : (string, float) Hashtbl.t = Hashtbl.create 8

let slo_us spec =
  match Hashtbl.find_opt slo_cache spec.name with
  | Some v -> v
  | None ->
      (* Long-enough window at minimal load to observe the mean. *)
      let config = config_for Variant.Jord_ni in
      let spec' =
        { spec with duration_us = Float.max spec.duration_us (2000.0 /. spec.min_rate) }
      in
      let _, recorder = run_point spec' ~config ~rate_mrps:spec.min_rate in
      let slo = 10.0 *. Jord_metrics.Recorder.mean_us recorder in
      Hashtbl.replace slo_cache spec.name slo;
      slo

let sweep spec ~config =
  par_map (fun rate -> (rate, snd (run_point spec ~config ~rate_mrps:rate))) spec.rates

(* Replicated sweep: run every rate with [seeds] independent seeds and
   report the median p99 and mean throughput per rate — squeezes run-to-run
   noise out of the knee region. The rate x seed cross product is one flat
   parallel batch; regrouping by rate preserves the per-rate seed order, so
   medians and sums see the samples in the sequential order. *)
let sweep_replicated spec ~config ~seeds =
  if seeds < 1 then invalid_arg "Exp_common.sweep_replicated";
  let points =
    List.concat_map (fun rate -> List.init seeds (fun i -> (rate, i))) spec.rates
  in
  let runs =
    par_map
      (fun (rate, i) ->
        let _, r = run_point ~seed_offset:i spec ~config ~rate_mrps:rate in
        (Jord_metrics.Recorder.p99_us r, Jord_metrics.Recorder.throughput_mrps r))
      points
  in
  let runs = Array.of_list runs in
  List.mapi
    (fun ri rate ->
      let per_rate = Array.sub runs (ri * seeds) seeds in
      let p99s = Array.map fst per_rate in
      let tput_sum = Array.fold_left (fun acc (_, t) -> acc +. t) 0.0 per_rate in
      (rate, Jord_util.Stats.percentile p99s 50.0, tput_sum /. float_of_int seeds))
    spec.rates

let throughput_under_slo ~slo_us pts =
  List.fold_left
    (fun best (_, recorder) ->
      if
        Jord_metrics.Recorder.count recorder > 0
        && Jord_metrics.Recorder.p99_us recorder <= slo_us
      then Float.max best (Jord_metrics.Recorder.throughput_mrps recorder)
      else best)
    0.0 pts
