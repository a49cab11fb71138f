(* Fleet layer: LB policy units, autoscaler hysteresis, spec grammars, the
   SLO rollup, and the tentpole property — a fleet run with autoscaling and
   flash-crowd traffic is byte-identical at any shard count. *)

module Fleet = Jord_fleet.Fleet
module Lb = Jord_fleet.Lb
module Autoscaler = Jord_fleet.Autoscaler
module Fserver = Jord_fleet.Fserver
module Traffic = Jord_workloads.Traffic
module Rollup = Jord_obsv.Rollup
module Slo = Jord_obsv.Slo

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Lb --- *)

let mk_view ?(routable = fun _ -> true) ~outstanding ~n ~spill () =
  { Lb.n; routable; outstanding = (fun i -> outstanding.(i)); spill }

let test_lb_round_robin () =
  let lb = Lb.create Lb.Round_robin in
  let v = mk_view ~outstanding:[| 0; 0; 0 |] ~n:3 ~spill:4 () in
  let picks = List.init 6 (fun _ -> fst (Option.get (Lb.pick lb v ~entry:0))) in
  check "cycles" true (picks = [ 0; 1; 2; 0; 1; 2 ]);
  let v =
    mk_view ~routable:(fun i -> i <> 1) ~outstanding:[| 0; 0; 0 |] ~n:3 ~spill:4 ()
  in
  let picks = List.init 4 (fun _ -> fst (Option.get (Lb.pick lb v ~entry:0))) in
  check "skips unroutable" true (List.for_all (fun p -> p <> 1) picks)

let test_lb_least_outstanding () =
  let lb = Lb.create Lb.Least_outstanding in
  let out = [| 3; 1; 1; 5 |] in
  let v = mk_view ~outstanding:out ~n:4 ~spill:4 () in
  check_int "min wins, lowest id ties" 1 (fst (Option.get (Lb.pick lb v ~entry:0)));
  let v = mk_view ~routable:(fun _ -> false) ~outstanding:out ~n:4 ~spill:4 () in
  check "none routable" true (Lb.pick lb v ~entry:0 = None)

let test_lb_affinity () =
  let lb = Lb.create Lb.Affinity in
  let out = [| 0; 0; 0 |] in
  let v = mk_view ~outstanding:out ~n:3 ~spill:2 () in
  (* First route opens the entry on the least-outstanding server (0). *)
  let s0, hit0 = Option.get (Lb.pick lb v ~entry:7) in
  check "first is a cold route" true ((s0, hit0) = (0, false));
  out.(0) <- 1;
  (* Below the spill threshold the warm server keeps winning. *)
  let s1, hit1 = Option.get (Lb.pick lb v ~entry:7) in
  check "warm hit" true ((s1, hit1) = (0, true));
  out.(0) <- 2;
  (* At the threshold it spills to a fresh server and remembers it. *)
  let s2, hit2 = Option.get (Lb.pick lb v ~entry:7) in
  check "spills when saturated" true ((s2, hit2) = (1, false));
  out.(1) <- 1;
  let s3, hit3 = Option.get (Lb.pick lb v ~entry:7) in
  check "spilled server is now warm" true ((s3, hit3) = (1, true));
  (* Other entries are unaffected by entry 7's warm set. *)
  let _, hit4 = Option.get (Lb.pick lb v ~entry:8) in
  check "separate entries separate warmth" true (hit4 = false);
  (* Forgetting a server drops its warm routes. *)
  Lb.forget lb 0;
  out.(0) <- 0;
  out.(1) <- 0;
  let s5, hit5 = Option.get (Lb.pick lb v ~entry:7) in
  check "forgotten server no longer warm-preferred" true ((s5, hit5) = (1, true));
  ignore s5

(* --- Autoscaler --- *)

let test_autoscaler_hysteresis () =
  let spec =
    { Autoscaler.default with Autoscaler.min_servers = 2; max_servers = 10; up_after = 2; down_after = 3; step = 4 }
  in
  let ctl = Autoscaler.control spec in
  let d = Autoscaler.decide ctl ~queue:0.0 ~booting:0 in
  check "first breach holds" true (d ~util:0.9 ~up:4 = Autoscaler.Hold);
  check "second breach scales up by step" true (d ~util:0.9 ~up:4 = Autoscaler.Up 4);
  check "streak resets after action" true (d ~util:0.9 ~up:8 = Autoscaler.Hold);
  check "clamped at max" true (d ~util:0.9 ~up:8 = Autoscaler.Up 2);
  check "mid-band resets streaks" true (d ~util:0.5 ~up:10 = Autoscaler.Hold);
  check "down 1" true (d ~util:0.1 ~up:10 = Autoscaler.Hold);
  check "down 2" true (d ~util:0.1 ~up:10 = Autoscaler.Hold);
  check "down 3 drains, clamped to min" true (d ~util:0.1 ~up:10 = Autoscaler.Down 4);
  (* Queue pressure counts as up-pressure even at low utilization. *)
  let ctl2 = Autoscaler.control spec in
  let d2 = Autoscaler.decide ctl2 ~booting:0 in
  check "queue breach 1" true (d2 ~util:0.1 ~queue:5.0 ~up:4 = Autoscaler.Hold);
  check "queue breach 2 scales" true (d2 ~util:0.1 ~queue:5.0 ~up:4 = Autoscaler.Up 4);
  (* Booting capacity counts toward max. *)
  let ctl3 = Autoscaler.control { spec with Autoscaler.up_after = 1 } in
  check "booting counts toward max" true
    (Autoscaler.decide ctl3 ~util:0.9 ~queue:0.0 ~up:6 ~booting:4 = Autoscaler.Hold)

let test_autoscaler_spec () =
  List.iter
    (fun (name, spec) ->
      (match Autoscaler.validate spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "preset %s invalid: %s" name m);
      check (name ^ " roundtrips") true
        (Autoscaler.parse (Autoscaler.to_string spec) = Ok spec))
    Autoscaler.presets;
  (match Autoscaler.parse "fast,min=8,max=64,boot-us=123" with
  | Ok s ->
      check "min" true (s.Autoscaler.min_servers = 8);
      check "max" true (s.Autoscaler.max_servers = 64);
      check "boot" true (s.Autoscaler.boot_us = 123.0)
  | Error m -> Alcotest.fail m);
  let bad s =
    match Autoscaler.parse s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "min=0";
  bad "min=5,max=2";
  bad "up=0.2,down=0.5";
  bad "interval-us=0";
  bad "nosuchkey=1";
  check "resolve max=0 -> fleet" true
    (Autoscaler.resolve Autoscaler.default ~fleet:33
    = Ok { Autoscaler.default with Autoscaler.max_servers = 33 });
  check "resolve rejects max > fleet" true
    (match Autoscaler.resolve { Autoscaler.default with Autoscaler.max_servers = 64 } ~fleet:8 with
    | Error _ -> true
    | Ok _ -> false)

(* --- Rollup --- *)

let objective =
  {
    Slo.default with
    Slo.name = "t";
    threshold_ps = 10_000_000 (* 10 us *);
    window_ps = 1_000_000_000 (* 1 ms *);
    budget = 0.1;
    fast_windows = 1;
    slow_windows = 2;
    burn_threshold = 1.0;
  }

let test_rollup_verdicts () =
  let r = Rollup.create [ objective ] in
  for i = 0 to 99 do
    Rollup.observe r ~at_ps:(i * 1_000_000) ~fn:"f" ~latency_ps:5_000_000 ~shed:false
      ~trace_id:(-1)
  done;
  Rollup.finish r ~now_ps:2_000_000_000;
  (match Rollup.rows r with
  | [ row ] ->
      check_int "requests" 100 row.Rollup.r_requests;
      check_int "bad" 0 row.Rollup.r_bad;
      check "met" true (row.Rollup.r_verdict = "met")
  | _ -> Alcotest.fail "one row expected");
  (* All-bad traffic burns the budget and fires; finishing at the window
     edge (before any empty recovery window) leaves the alert firing. *)
  let r = Rollup.create [ objective ] in
  for i = 0 to 99 do
    Rollup.observe r ~at_ps:(i * 10_000_000) ~fn:"f" ~latency_ps:0 ~shed:true
      ~trace_id:(-1)
  done;
  Rollup.finish r ~now_ps:1_000_000_000;
  (match Rollup.rows r with
  | [ row ] ->
      check_int "all bad" 100 row.Rollup.r_bad;
      check "fired at least once" true (row.Rollup.r_fired >= 1);
      check "verdict is firing" true (row.Rollup.r_verdict = "FIRING")
  | _ -> Alcotest.fail "one row expected");
  (* Once traffic recovers (empty windows close), the alert resolves and
     the verdict downgrades to VIOLATED — budget burnt, not on fire. *)
  let r = Rollup.create [ objective ] in
  for i = 0 to 99 do
    Rollup.observe r ~at_ps:(i * 10_000_000) ~fn:"f" ~latency_ps:0 ~shed:true
      ~trace_id:(-1)
  done;
  Rollup.finish r ~now_ps:5_000_000_000;
  (match Rollup.rows r with
  | [ row ] ->
      check "resolved after recovery" true (row.Rollup.r_resolved >= 1);
      check "verdict violated" true (row.Rollup.r_verdict = "VIOLATED")
  | _ -> Alcotest.fail "one row expected");
  (* Empty rollup reports no-data and no transitions. *)
  let r = Rollup.create [ objective ] in
  Rollup.finish r ~now_ps:1_000_000_000;
  match Rollup.rows r with
  | [ row ] ->
      check "no-data" true (row.Rollup.r_verdict = "no-data");
      check "no transitions" true (Rollup.transitions r = [])
  | _ -> Alcotest.fail "one row expected"

(* --- the fleet itself --- *)

let ci_shape =
  match Traffic.parse "ci,users=20000,rate=6" with
  | Ok s -> s
  | Error m -> failwith m

let member_cfg =
  { Fserver.default_config with Fserver.slots = 4; queue_cap = 16; cold_start_ns = 10_000.0 }

let run_fleet ~shards ~autoscale () =
  let cfg =
    {
      Fleet.default_config with
      Fleet.servers = 16;
      member = member_cfg;
      shards;
      autoscale;
    }
  in
  let t = Fleet.create cfg ~app:Jord_workloads.Hipster.app in
  let slo =
    match Slo.parse "ci" with Ok o -> o | Error m -> failwith m
  in
  Fleet.run ~slo t ~shape:ci_shape ~duration_us:400.0;
  t

let autoscale_spec =
  match Autoscaler.parse "fast,min=4,boot-us=60" with
  | Ok s -> s
  | Error m -> failwith m

let fingerprint t =
  String.concat "|"
    [
      Fleet.summary t;
      (match Fleet.rollup t with
      | Some r -> Rollup.report_text r
      | None -> "no-rollup");
      string_of_int (Fleet.events_processed t);
    ]

let test_fleet_conservation () =
  let t = run_fleet ~shards:1 ~autoscale:(Some autoscale_spec) () in
  check "arrivals split" true
    (Fleet.arrivals t = Fleet.routed t + Fleet.lb_shed t);
  check "routed split" true
    (Fleet.routed t = Fleet.completed t + Fleet.server_shed t);
  check_int "drained" 0 (Fleet.outstanding_now t);
  check "some traffic" true (Fleet.completed t > 1000);
  check "cold starts happened" true (Fleet.cold_starts t > 0);
  check "autoscaler acted" true (Fleet.boots t > 0);
  check "scale events logged" true (Fleet.scale_events t <> [])

let test_fleet_sharded_identical () =
  let base = fingerprint (run_fleet ~shards:1 ~autoscale:(Some autoscale_spec) ()) in
  List.iter
    (fun shards ->
      let fp = fingerprint (run_fleet ~shards ~autoscale:(Some autoscale_spec) ()) in
      Alcotest.(check string)
        (Printf.sprintf "shards=%d identical to sequential" shards)
        base fp)
    [ 2; 4; 8 ]

let test_fleet_no_autoscale_stays_up () =
  let t = run_fleet ~shards:1 ~autoscale:None () in
  check_int "all up" 16 (Fleet.up_now t);
  check "no scale events" true (Fleet.scale_events t = []);
  check_int "no boots" 0 (Fleet.boots t)

let test_fleet_affinity_beats_rr_on_cold_starts () =
  let run policy =
    let cfg =
      { Fleet.default_config with Fleet.servers = 16; member = member_cfg; policy }
    in
    let t = Fleet.create cfg ~app:Jord_workloads.Hipster.app in
    Fleet.run t ~shape:ci_shape ~duration_us:200.0;
    t
  in
  let aff = run Lb.Affinity and rr = run Lb.Round_robin in
  check "affinity hits recorded" true (Fleet.affinity_hits aff > 0);
  check "affinity pays fewer cold starts" true
    (Fleet.cold_starts aff < Fleet.cold_starts rr)

let test_fleet_gauges () =
  let t = run_fleet ~shards:1 ~autoscale:(Some autoscale_spec) () in
  let r = Fleet.registry t in
  let gauge name =
    match Jord_telemetry.Registry.find r ~name ~labels:[] with
    | Some { Jord_telemetry.Registry.value = Jord_telemetry.Registry.Gauge_v v; _ } -> v
    | Some { Jord_telemetry.Registry.value = Jord_telemetry.Registry.Counter_v v; _ } -> v
    | _ -> Alcotest.failf "missing gauge %s" name
  in
  check "servers_up gauge" true
    (int_of_float (gauge "jord_fleet_servers_up") = Fleet.up_now t);
  check "completed counter" true
    (int_of_float (gauge "jord_fleet_completed_total") = Fleet.completed t);
  (* Per-member jord_server_up instances exist. *)
  check "per-server up gauge" true
    (Jord_telemetry.Registry.find r ~name:"jord_server_up"
       ~labels:[ ("server", "0") ]
    <> None)

(* --- spec parser fuzzing --- *)

let prop_autoscaler_fuzz =
  Test_chaos.prop_spec_fuzz
    ~name:"autoscaler parse: no exception escapes, Ok specs are finite and round-trip"
    ~parse:Autoscaler.parse ~to_string:Autoscaler.to_string ~validate:Autoscaler.validate
    ~floats:(fun s -> Autoscaler.[ s.interval_us; s.up_util; s.down_util; s.boot_us ])
    [ "default"; "fast"; "min="; "max="; "interval-us="; "up="; "down="; "up-after=";
      "down-after="; "step="; "boot-us=" ]

let prop_lb_fuzz =
  Test_chaos.prop_spec_fuzz ~name:"lb parse: no exception escapes, Ok policies round-trip"
    ~parse:Lb.parse ~to_string:Lb.to_string
    ~validate:(fun _ -> Ok ())
    ~floats:(fun _ -> [])
    [ "rr"; "lo"; "affinity"; "round-robin"; "round_robin"; "least-outstanding";
      "least_outstanding"; "RR"; "Affinity" ]

let suite =
  [
    Alcotest.test_case "lb: round robin" `Quick test_lb_round_robin;
    Alcotest.test_case "lb: least outstanding" `Quick test_lb_least_outstanding;
    Alcotest.test_case "lb: affinity warm routes and spill" `Quick test_lb_affinity;
    Alcotest.test_case "autoscaler: hysteresis" `Quick test_autoscaler_hysteresis;
    Alcotest.test_case "autoscaler: spec grammar" `Quick test_autoscaler_spec;
    QCheck_alcotest.to_alcotest prop_autoscaler_fuzz;
    QCheck_alcotest.to_alcotest prop_lb_fuzz;
    Alcotest.test_case "rollup: verdicts and burn" `Quick test_rollup_verdicts;
    Alcotest.test_case "fleet: conservation + autoscale" `Quick test_fleet_conservation;
    Alcotest.test_case "fleet: byte-identical at shards 2/4/8" `Quick
      test_fleet_sharded_identical;
    Alcotest.test_case "fleet: no autoscale keeps everything up" `Quick
      test_fleet_no_autoscale_stays_up;
    Alcotest.test_case "fleet: affinity cuts cold starts" `Quick
      test_fleet_affinity_beats_rr_on_cold_starts;
    Alcotest.test_case "fleet: telemetry gauges" `Quick test_fleet_gauges;
  ]
