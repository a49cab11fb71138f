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

(* A balancer whose servers hold the given in-flight counts. *)
let mk_lb pol ?(entries = 1) ~outstanding ~spill () =
  let lb = Lb.create pol ~servers:(Array.length outstanding) ~entries ~spill in
  Array.iteri
    (fun s o ->
      for _ = 1 to o do
        Lb.route lb s
      done)
    outstanding;
  lb

let pick_hit lb ~entry =
  let s = Lb.pick lb ~entry in
  (s, Lb.hit lb)

let test_lb_round_robin () =
  let lb = mk_lb Lb.Round_robin ~outstanding:[| 0; 0; 0 |] ~spill:4 () in
  let picks = List.init 6 (fun _ -> Lb.pick lb ~entry:0) in
  check "cycles" true (picks = [ 0; 1; 2; 0; 1; 2 ]);
  Lb.set_routable lb 1 false;
  let picks = List.init 4 (fun _ -> Lb.pick lb ~entry:0) in
  check "skips unroutable" true (List.for_all (fun p -> p <> 1) picks)

let test_lb_least_outstanding () =
  let out = [| 3; 1; 1; 5 |] in
  let lb = mk_lb Lb.Least_outstanding ~outstanding:out ~spill:4 () in
  check_int "min wins, lowest id ties" 1 (Lb.pick lb ~entry:0);
  (* Every server at or past spill: the scan still finds the minimum. *)
  let lb2 = mk_lb Lb.Least_outstanding ~outstanding:out ~spill:1 () in
  check_int "above spill, min wins" 1 (Lb.pick lb2 ~entry:0);
  Array.iteri (fun s _ -> Lb.set_routable lb s false) out;
  check "none routable" true (Lb.pick lb ~entry:0 = -1)

let test_lb_affinity () =
  let lb = mk_lb Lb.Affinity ~entries:9 ~outstanding:[| 0; 0; 0 |] ~spill:2 () in
  (* First route opens the entry on the least-outstanding server (0). *)
  let s0, hit0 = pick_hit lb ~entry:7 in
  check "first is a cold route" true ((s0, hit0) = (0, false));
  Lb.route lb 0;
  (* Below the spill threshold the warm server keeps winning. *)
  let s1, hit1 = pick_hit lb ~entry:7 in
  check "warm hit" true ((s1, hit1) = (0, true));
  Lb.route lb 0;
  (* At the threshold it spills to a fresh server and remembers it. *)
  let s2, hit2 = pick_hit lb ~entry:7 in
  check "spills when saturated" true ((s2, hit2) = (1, false));
  Lb.route lb 1;
  let s3, hit3 = pick_hit lb ~entry:7 in
  check "spilled server is now warm" true ((s3, hit3) = (1, true));
  (* Other entries are unaffected by entry 7's warm set. *)
  let _, hit4 = pick_hit lb ~entry:8 in
  check "separate entries separate warmth" true (hit4 = false);
  (* Forgetting a server drops its warm routes. *)
  Lb.forget lb 0;
  Lb.complete lb 0;
  Lb.complete lb 0;
  Lb.complete lb 1;
  let s5, hit5 = pick_hit lb ~entry:7 in
  check "forgotten server no longer warm-preferred" true ((s5, hit5) = (1, true));
  check "completion below zero is refused" true
    (match Lb.complete lb 2 with () -> false | exception Invalid_argument _ -> true)

let test_lb_picks_allocate_nothing () =
  (* The balancer runs once per fleet request. *)
  List.iter
    (fun pol ->
      let n = 64 in
      let lb = mk_lb pol ~entries:4 ~outstanding:(Array.init n (fun i -> i mod 5)) ~spill:3 () in
      let acc = ref 0 in
      let before = Gc.minor_words () in
      for i = 1 to 10_000 do
        acc := !acc + Lb.pick lb ~entry:(i mod 4);
        if Lb.hit lb then incr acc
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: minor words for 10k picks (sum %d)" (Lb.to_string pol) !acc)
        0.0 words)
    [ Lb.Round_robin; Lb.Least_outstanding; Lb.Affinity ]

(* The model: the balancer as a view of closures and warm routes as one
   list per entry in a Hashtbl, rebuilt on every affinity pick. *)
module Lb_model = struct
  type view = { n : int; routable : int -> bool; outstanding : int -> int; spill : int }
  type t = { pol : Lb.policy; mutable rr : int; warm : (int, int list ref) Hashtbl.t }

  let create pol = { pol; rr = 0; warm = Hashtbl.create 8 }

  let least_outstanding v =
    let best = ref (-1) and best_out = ref max_int in
    for i = 0 to v.n - 1 do
      if v.routable i then begin
        let o = v.outstanding i in
        if o < !best_out then begin
          best := i;
          best_out := o
        end
      end
    done;
    if !best < 0 then None else Some !best

  let round_robin t v =
    let rec go tries =
      if tries >= v.n then None
      else begin
        let c = t.rr mod v.n in
        t.rr <- (t.rr + 1) mod v.n;
        if v.routable c then Some c else go (tries + 1)
      end
    in
    go 0

  let warm_list t entry =
    match Hashtbl.find_opt t.warm entry with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add t.warm entry l;
        l

  let pick t v ~entry =
    match t.pol with
    | Lb.Round_robin -> Option.map (fun s -> (s, false)) (round_robin t v)
    | Lb.Least_outstanding -> Option.map (fun s -> (s, false)) (least_outstanding v)
    | Lb.Affinity -> (
        let l = warm_list t entry in
        l := List.filter v.routable !l;
        let best_warm =
          List.fold_left
            (fun acc s ->
              match acc with
              | Some b when v.outstanding b < v.outstanding s -> acc
              | Some b when v.outstanding b = v.outstanding s && b < s -> acc
              | _ -> Some s)
            None !l
        in
        match best_warm with
        | Some s when v.outstanding s < v.spill -> Some (s, true)
        | _ -> (
            match least_outstanding v with
            | None -> None
            | Some s ->
                if not (List.mem s !l) then l := s :: !l;
                Some (s, false)))

  let forget t sid =
    Hashtbl.iter (fun _ l -> l := List.filter (fun s -> s <> sid) !l) t.warm
end

(* A random balancer history. Server operands are taken mod the fleet
   size; a pick that lands also takes a request in flight, as in Fleet. *)
type lb_op = Pick of int | Inc of int | Dec of int | Flip of int | Forget of int

let show_lb_op = function
  | Pick e -> Printf.sprintf "pick %d" e
  | Inc s -> Printf.sprintf "inc %d" s
  | Dec s -> Printf.sprintf "dec %d" s
  | Flip s -> Printf.sprintf "flip %d" s
  | Forget s -> Printf.sprintf "forget %d" s

let lb_entries = 8

let arb_lb_history =
  let open QCheck.Gen in
  let srv = int_bound 255 in
  let op =
    frequency
      [
        (8, map (fun e -> Pick e) (int_bound (lb_entries - 1)));
        (3, map (fun s -> Inc s) srv);
        (4, map (fun s -> Dec s) srv);
        (2, map (fun s -> Flip s) srv);
        (1, map (fun s -> Forget s) srv);
      ]
  in
  let pol = oneofl [ Lb.Round_robin; Lb.Least_outstanding; Lb.Affinity ] in
  let n = oneof [ int_range 1 8; int_range 1 256 ] in
  QCheck.make
    ~print:(fun (pol, n, spill, ops) ->
      Printf.sprintf "%s n=%d spill=%d: %s" (Lb.to_string pol) n spill
        (String.concat "; " (List.map show_lb_op ops)))
    (quad pol n (int_range 1 4) (list_size (int_range 1 400) op))

let prop_lb_matches_model =
  QCheck.Test.make ~name:"lb: array balancer picks what the list model picks" ~count:500
    arb_lb_history (fun (pol, n, spill, ops) ->
      (* The model reads these arrays; every change also goes to [lb]. *)
      let routable = Array.make n true and outstanding = Array.make n 0 in
      let lb = Lb.create pol ~servers:n ~entries:lb_entries ~spill in
      let model = Lb_model.create pol in
      let mv =
        {
          Lb_model.n;
          routable = (fun i -> routable.(i));
          outstanding = (fun i -> outstanding.(i));
          spill;
        }
      in
      let inc s =
        outstanding.(s) <- outstanding.(s) + 1;
        Lb.route lb s
      in
      List.for_all
        (fun op ->
          match op with
          | Pick entry ->
              let s = Lb.pick lb ~entry in
              let got = if s < 0 then None else Some (s, Lb.hit lb) in
              let want = Lb_model.pick model mv ~entry in
              if s >= 0 then inc s;
              got = want
          | Inc s ->
              inc (s mod n);
              true
          | Dec s ->
              let s = s mod n in
              if outstanding.(s) > 0 then begin
                outstanding.(s) <- outstanding.(s) - 1;
                Lb.complete lb s
              end;
              true
          | Flip s ->
              let s = s mod n in
              routable.(s) <- not routable.(s);
              Lb.set_routable lb s routable.(s);
              true
          | Forget s ->
              Lb.forget lb (s mod n);
              Lb_model.forget model (s mod n);
              true)
        ops)

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
    QCheck_alcotest.to_alcotest prop_lb_matches_model;
    Alcotest.test_case "lb: picks allocate nothing" `Quick test_lb_picks_allocate_nothing;
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
