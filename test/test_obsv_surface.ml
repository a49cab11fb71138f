(* Output-surface pin for the observability stack: three seeded runs feed
   every SLO renderer, both trace files, every trace report and blame export
   and all three Chrome/Perfetto exporters, and test/obsv_surface.expected
   records each output's byte length and MD5. A refactor of the SLO core,
   the trace writer or the reports must keep every line, or change exactly
   the lines it means to move.

   Text reports are pinned twice: as printed, and squeezed (runs of spaces
   collapsed, line ends trimmed, dashed table rules dropped), so a change of
   table layout alone moves the first line and keeps the second. *)

open Jord_faas
module Engine = Jord_sim.Engine
module Slo = Jord_obsv.Slo
module Online = Jord_obsv.Online
module Rollup = Jord_obsv.Rollup
module Ftrace = Jord_obsv.Ftrace
module Tracefile = Jord_obsv.Tracefile
module Report = Jord_obsv.Report
module Export = Jord_obsv.Export
module Freport = Jord_obsv.Freport
module Critical_path = Jord_obsv.Critical_path
module Fleet = Jord_fleet.Fleet

let slo_ci = match Slo.parse "ci" with Ok o -> o | Error m -> failwith m

let line name body =
  Printf.sprintf "%s bytes=%d md5=%s\n" name (String.length body)
    (Digest.to_hex (Digest.string body))

let squeeze body =
  let squeeze_line l =
    let b = Buffer.create (String.length l) in
    String.iteri
      (fun i c -> if not (c = ' ' && i > 0 && l.[i - 1] = ' ') then Buffer.add_char b c)
      l;
    let s = Buffer.contents b in
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  String.split_on_char '\n' body
  |> List.filter (fun l ->
         not (String.contains l '-' && String.for_all (fun c -> c = '-' || c = ' ') l))
  |> List.map squeeze_line |> String.concat "\n"

let text name body = [ (name, body); (name ^ ".squeezed", squeeze body) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp f =
  let path = Filename.temp_file "jord_surface" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The reports and blame exports `jordctl trace` prints for one trace; a
   server trace's blame report is its `critical-path` output. *)
let report_outputs prefix ~blame t =
  text (prefix ^ ".breakdown") (Report.breakdown t)
  @ text (prefix ^ ".slowest") (Report.slowest t)
  @ text (prefix ^ "." ^ blame) (Report.blame t)
  @ [
      (prefix ^ ".blame_json", Report.blame_json t);
      (prefix ^ ".blame_csv", Report.blame_csv t);
    ]

let online_outputs prefix p =
  [
    (prefix ^ ".online.report_text", Online.report_text p);
    (prefix ^ ".online.report_json", Online.report_json p);
    (prefix ^ ".online.alerts_text", Online.alerts_text p);
    (prefix ^ ".online.alerts_json", Online.alerts_json p);
    (prefix ^ ".online.burn_text", Online.burn_text p);
    (prefix ^ ".online.burn_csv", Online.burn_csv p);
  ]

(* `jordctl run -a hipster -r 1 -d 200 --slo ci`: the run ends on a window
   boundary. *)
let server_outputs () =
  let tracer = Trace.create () in
  let p = Online.create slo_ci in
  Online.attach p tracer;
  let config = { Server.default_config with Server.seed = 1 } in
  let server, _ =
    Jord_workloads.Loadgen.run ~tracer ~app:Jord_workloads.Hipster.app ~config
      ~rate_mrps:1.0 ~duration_us:200.0 ~seed:1 ()
  in
  let end_ps = Engine.now (Server.engine server) in
  Online.finish p ~now_ps:end_ps;
  let orch_cores = Server.orchestrator_cores server in
  let saved, r =
    with_temp (fun path ->
        Tracefile.save ~path
          ~meta:
            [
              ( "orch_cores",
                Jord_util.Json.List (List.map (fun c -> Jord_util.Json.Int c) orch_cores) );
              ("end_ps", Jord_util.Json.Int end_ps);
            ]
          tracer;
        match Tracefile.load ~path with
        | Ok (Tracefile.Server l) -> (read_file path, Tracefile.spans l)
        | Ok (Tracefile.Fleet _) -> failwith "server trace loaded as a fleet trace"
        | Error m -> failwith m)
  in
  online_outputs "server" p
  @ [
      ("server.trace.chrome_json", Trace.to_chrome_json ~orch_cores tracer);
      ("server.tracefile.jsonl", saved);
    ]
  @ report_outputs "server" ~blame:"critical_path" (Critical_path.report r)

(* `jordctl run -a hotel -r 4 -d 300 --servers 3 --cores 8
   --forward-after 1 --fault-plan ci-smoke --slo ci`. *)
let chaos_outputs () =
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
  let r = Jord_obsv.Span.of_trace tracer in
  online_outputs "chaos" p
  @ [
      ( "chaos.export.chrome_json",
        Export.chrome_json ~orch_cores ~events:(Trace.events tracer) r );
    ]
  @ report_outputs "chaos" ~blame:"critical_path" (Critical_path.report r)

(* `jordctl run --fleet 50 --traffic flash,users=20000,rate=6 -d 250
   --slo ci --trace-out FILE`: the horizon (750 us) ends mid-window. *)
let fleet_outputs () =
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
  with_temp (fun path ->
      Ftrace.save ~path tracer;
      let saved = read_file path in
      let loaded =
        match Tracefile.load ~path with
        | Ok (Tracefile.Fleet l) -> l
        | Ok (Tracefile.Server _) -> failwith "fleet trace loaded as a server trace"
        | Error m -> failwith m
      in
      [
        ("fleet.rollup.report_text", Rollup.report_text r);
        ("fleet.rollup.report_json", Rollup.report_json r);
        ("fleet.rollup.report_csv", Rollup.report_csv r);
        ("fleet.ftrace.jsonl", saved);
        ("fleet.freport.chrome_json", Freport.chrome_json loaded);
      ]
      @ report_outputs "fleet" ~blame:"blame" (Freport.report loaded))

(* Every pinned output as (name, body), computed once for all tests. *)
let outputs = lazy (server_outputs () @ chaos_outputs () @ fleet_outputs ())

let report () =
  String.concat ""
    ("# jord observability output surface (name, bytes, md5)\n"
    :: List.map (fun (name, body) -> line name body) (Lazy.force outputs))

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

let index_of needle hay =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length hay then None
    else if String.sub hay i n = needle then Some i
    else go (i + 1)
  in
  go 0

(* In every breakdown and slowest table of the hipster server run and the
   fleet run, each row's e2e cell starts in the header's e2e_us column. *)
let test_e2e_column_aligned () =
  List.iter
    (fun name ->
      let rec header = function
        | [] -> Alcotest.failf "%s: no table header" name
        | l :: rest -> (
            match index_of "e2e_us" l with Some col -> (col, rest) | None -> header rest)
      in
      let body = List.assoc name (Lazy.force outputs) in
      let col, rest = header (String.split_on_char '\n' body) in
      let rec rows = function
        | [] -> []
        | l :: _ when l = "" || String.starts_with ~prefix:"conservation:" l -> []
        | l :: rest when String.for_all (fun c -> c = '-' || c = ' ') l -> rows rest
        | l :: rest -> l :: rows rest
      in
      let rows = rows rest in
      Alcotest.(check bool) (name ^ " has rows") true (rows <> []);
      List.iter
        (fun row ->
          if not (String.length row > col && row.[col - 1] = ' ' && row.[col] <> ' ') then
            Alcotest.failf "%s: e2e cell not at column %d in %S" name col row)
        rows)
    [ "server.breakdown"; "server.slowest"; "fleet.breakdown"; "fleet.slowest" ]

let suite =
  [
    Alcotest.test_case "renderers, trace file and Chrome exports pinned" `Quick test_surface_pinned;
    Alcotest.test_case "trace tables align the e2e column" `Quick test_e2e_column_aligned;
  ]
