(* Output-surface pin for the observability stack: three seeded runs feed
   every SLO renderer, the fleet trace file and all three Chrome/Perfetto
   exporters, and test/obsv_surface.expected records each output's byte
   length and MD5. A refactor of the SLO core or the trace writer must keep
   every line, or change exactly the lines it means to move. *)

open Jord_faas
module Engine = Jord_sim.Engine
module Slo = Jord_obsv.Slo
module Online = Jord_obsv.Online
module Rollup = Jord_obsv.Rollup
module Ftrace = Jord_obsv.Ftrace
module Fleet = Jord_fleet.Fleet

let slo_ci = match Slo.parse "ci" with Ok o -> o | Error m -> failwith m

let line name body =
  Printf.sprintf "%s bytes=%d md5=%s\n" name (String.length body)
    (Digest.to_hex (Digest.string body))

let online_lines prefix p =
  [
    line (prefix ^ ".online.report_text") (Online.report_text p);
    line (prefix ^ ".online.report_json") (Online.report_json p);
    line (prefix ^ ".online.alerts_text") (Online.alerts_text p);
    line (prefix ^ ".online.alerts_json") (Online.alerts_json p);
    line (prefix ^ ".online.burn_text") (Online.burn_text p);
    line (prefix ^ ".online.burn_csv") (Online.burn_csv p);
  ]

(* `jordctl run -a hipster -r 1 -d 200 --slo ci`: the run ends on a window
   boundary. *)
let server_lines () =
  let tracer = Trace.create () in
  let p = Online.create slo_ci in
  Online.attach p tracer;
  let config = { Server.default_config with Server.seed = 1 } in
  let server, _ =
    Jord_workloads.Loadgen.run ~tracer ~app:Jord_workloads.Hipster.app ~config
      ~rate_mrps:1.0 ~duration_us:200.0 ~seed:1 ()
  in
  Online.finish p ~now_ps:(Engine.now (Server.engine server));
  online_lines "server" p
  @ [
      line "server.trace.chrome_json"
        (Trace.to_chrome_json ~orch_cores:(Server.orchestrator_cores server) tracer);
    ]

(* `jordctl run -a hotel -r 4 -d 300 --servers 3 --cores 8
   --forward-after 1 --fault-plan ci-smoke --slo ci`. *)
let chaos_lines () =
  let tracer = Trace.create ~capacity:(1 lsl 17) () in
  let p = Online.create slo_ci in
  Online.attach p tracer;
  let config =
    {
      Server.default_config with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
      seed = 1;
      fault_plan = Some Jord_fault_inject.Plan.ci_smoke;
    }
  in
  let cluster, _ =
    Jord_workloads.Loadgen.run_cluster ~tracer ~forward_after:1 ~servers:3
      ~app:Jord_workloads.Hotel.app ~config ~rate_mrps:4.0 ~duration_us:300.0 ~seed:1 ()
  in
  Online.finish p ~now_ps:(Engine.now (Cluster.engine cluster));
  let orch_cores = Server.orchestrator_cores (Cluster.servers cluster).(0) in
  online_lines "chaos" p
  @ [
      line "chaos.export.chrome_json"
        (Jord_obsv.Export.chrome_json ~orch_cores ~events:(Trace.events tracer)
           (Jord_obsv.Span.of_trace tracer));
    ]

(* `jordctl run --fleet 50 --traffic flash,users=20000,rate=6 -d 250
   --slo ci --trace-out FILE`: the horizon (750 us) ends mid-window. *)
let fleet_lines () =
  let shape =
    match Jord_workloads.Traffic.parse "flash,users=20000,rate=6" with
    | Ok s -> s
    | Error m -> failwith m
  in
  let fleet =
    Fleet.create { Fleet.default_config with Fleet.servers = 50 }
      ~app:Jord_workloads.Hipster.app
  in
  let tracer = Ftrace.create () in
  Fleet.run ~slo:slo_ci ~tracer fleet ~shape ~duration_us:250.0;
  let r = match Fleet.rollup fleet with Some r -> r | None -> failwith "no rollup" in
  let path = Filename.temp_file "jord_surface" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ftrace.save ~path tracer;
      let ic = open_in_bin path in
      let saved = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let loaded = match Ftrace.load ~path with Ok l -> l | Error m -> failwith m in
      [
        line "fleet.rollup.report_text" (Rollup.report_text r);
        line "fleet.rollup.report_json" (Rollup.report_json r);
        line "fleet.rollup.report_csv" (Rollup.report_csv r);
        line "fleet.ftrace.jsonl" saved;
        line "fleet.freport.chrome_json" (Jord_obsv.Freport.chrome_json loaded);
      ])

let report () =
  String.concat ""
    (("# jord observability output surface (name, bytes, md5)\n" :: server_lines ())
    @ chaos_lines () @ fleet_lines ())

let expected_path () =
  if Sys.file_exists "obsv_surface.expected" then "obsv_surface.expected"
  else Filename.concat "test" "obsv_surface.expected"

let test_surface_pinned () =
  let ic = open_in_bin (expected_path ()) in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let actual = report () in
  if not (String.equal expected actual) then
    Alcotest.failf "observability surface moved\nexpected:\n%s\nactual:\n%s" expected actual

let suite =
  [ Alcotest.test_case "renderers, trace file and Chrome exports pinned" `Quick test_surface_pinned ]
