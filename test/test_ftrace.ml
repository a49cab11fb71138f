(* Fleet causal tracing: the span conservation identity under random
   traffic shapes x LB policies x autoscale specs (qcheck), deterministic
   tail sampling (order independence + identical retained sets at any
   shard count), the exemplar pin guarantee, the Sketch exemplar slot and
   the Rollup CSV round-trip. *)

module Fleet = Jord_fleet.Fleet
module Lb = Jord_fleet.Lb
module Autoscaler = Jord_fleet.Autoscaler
module Fserver = Jord_fleet.Fserver
module Traffic = Jord_workloads.Traffic
module Fspan = Jord_obsv.Fspan
module Fsampler = Jord_obsv.Fsampler
module Ftrace = Jord_obsv.Ftrace
module Rollup = Jord_obsv.Rollup
module Slo = Jord_obsv.Slo
module Sketch = Jord_telemetry.Sketch

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let member_cfg =
  { Fserver.default_config with Fserver.slots = 4; queue_cap = 16; cold_start_ns = 10_000.0 }

let slo_ci = match Slo.parse "ci" with Ok o -> o | Error m -> failwith m

(* A traced fleet run; [reservoir] large enough to retain everything when a
   property needs the full population. *)
let traced_run ?(servers = 12) ?(shards = 1) ?(policy = Lb.Affinity)
    ?(autoscale = None) ?(slo = slo_ci) ?(reservoir = Fsampler.default_reservoir)
    ~shape ~duration_us () =
  let cfg =
    {
      Fleet.default_config with
      Fleet.servers;
      policy;
      member = member_cfg;
      shards;
      autoscale;
    }
  in
  let t = Fleet.create cfg ~app:Jord_workloads.Hipster.app in
  let tracer = Ftrace.create ~reservoir () in
  Fleet.run ~slo ~tracer t ~shape ~duration_us;
  (t, tracer)

(* --- qcheck: conservation over random fleet configurations --- *)

type fleet_case = {
  c_policy : Lb.policy;
  c_servers : int;
  c_autoscale : string option;
  c_traffic : string;
}

let gen_case =
  QCheck.Gen.(
    let* c_policy = oneofl [ Lb.Round_robin; Lb.Least_outstanding; Lb.Affinity ] in
    let* c_servers = int_range 4 20 in
    let* c_autoscale =
      oneofl [ None; Some "fast,min=2,boot-us=60"; Some "default,min=3,interval-us=50" ]
    in
    let* preset = oneofl [ "steady"; "flash"; "ci" ] in
    let* users = int_range 2_000 20_000 in
    let* rate = int_range 2 8 in
    let* seed = int_range 1 1000 in
    return
      {
        c_policy;
        c_servers;
        c_autoscale;
        c_traffic = Printf.sprintf "%s,users=%d,rate=%d,seed=%d" preset users rate seed;
      })

let print_case c =
  Printf.sprintf "policy=%s servers=%d autoscale=%s traffic=%s"
    (Lb.to_string c.c_policy) c.c_servers
    (Option.value ~default:"none" c.c_autoscale)
    c.c_traffic

let arb_case = QCheck.make ~print:print_case gen_case

let run_case c =
  let shape = match Traffic.parse c.c_traffic with Ok s -> s | Error m -> failwith m in
  let autoscale =
    match c.c_autoscale with
    | None -> None
    | Some s -> (
        match Autoscaler.parse s with
        | Ok spec -> (
            match Autoscaler.resolve spec ~fleet:c.c_servers with
            | Ok spec -> Some spec
            | Error m -> failwith m)
        | Error m -> failwith m)
  in
  traced_run ~servers:c.c_servers ~policy:c.c_policy ~autoscale
    ~reservoir:1_000_000 ~shape ~duration_us:150.0 ()

let prop_conservation =
  QCheck.Test.make
    ~name:
      "fleet spans: balancer_queue+wire+member_queue+cold_start+service+\
       response_wire = end-to-end"
    ~count:12 arb_case
    (fun c ->
      let t, tracer = run_case c in
      let spans = Ftrace.retained tracer in
      (* The reservoir out-sizes the run: every decided request's span is
         retained, so the identity is checked over the whole population. *)
      List.length spans = Fleet.completed t + Fleet.shed t
      && List.for_all (fun (_, sp) -> Fspan.conservation_ok sp) spans
      && List.for_all
           (fun (_, sp) ->
             match sp.Fspan.outcome with
             | Fspan.Completed ->
                 sp.Fspan.member >= 0
                 && Fspan.phase_ps sp Fspan.Wire > 0
                 && Fspan.phase_ps sp Fspan.Service > 0
             | Fspan.Shed_lb -> sp.Fspan.member = -1 && Fspan.e2e_ps sp = 0
             | Fspan.Shed_member ->
                 (* A queue-full drop pays the two wire hops and nothing else. *)
                 Fspan.e2e_ps sp
                 = Fspan.phase_ps sp Fspan.Wire
                   + Fspan.phase_ps sp Fspan.Response_wire)
           spans)

(* --- qcheck: the sampler is a pure function of the id set --- *)

let mk_span id =
  let phases = Array.make Fspan.phase_count 0 in
  phases.(Fspan.phase_index Fspan.Service) <- 100 * (id + 1);
  {
    Fspan.req_id = id;
    user = id;
    fn = "f";
    member = 0;
    lb_hit = false;
    cold = false;
    outcome = Fspan.Completed;
    submit_ps = 0;
    end_ps = 100 * (id + 1);
    phases;
  }

let prop_sampler_order_independent =
  QCheck.Test.make ~name:"sampler: retained set independent of offer order"
    ~count:100
    QCheck.(pair (int_range 1 200) small_int)
    (fun (n, seed) ->
      let forward = List.init n mk_span in
      let backward = List.rev forward in
      let retained spans =
        let s = Fsampler.create ~seed ~reservoir:8 () in
        List.iter (fun sp -> Fsampler.offer s sp) spans;
        List.map (fun (_, sp) -> sp.Fspan.req_id) (Fsampler.retained s)
      in
      retained forward = retained backward)

(* --- deterministic retained sets at any shard count --- *)

let flash_shape =
  match Traffic.parse "flash,users=20000,rate=6" with
  | Ok s -> s
  | Error m -> failwith m

let autoscale_spec =
  match Autoscaler.parse "fast,min=4,boot-us=60" with
  | Ok s -> (
      match Autoscaler.resolve s ~fleet:16 with Ok s -> s | Error m -> failwith m)
  | Error m -> failwith m

let trace_lines tracer =
  List.map (fun (keep, sp) -> Fspan.to_json_line ~keep sp) (Ftrace.retained tracer)

let test_sharded_identical_traces () =
  let run shards =
    let t, tracer =
      traced_run ~servers:16 ~shards ~autoscale:(Some autoscale_spec)
        ~shape:flash_shape ~duration_us:400.0 ()
    in
    (* The verdict table (exemplar column included) rides along: the whole
       observable trace surface is shard-invariant, not just the spans. *)
    let rollup =
      match Fleet.rollup t with Some r -> Rollup.report_text r | None -> ""
    in
    rollup :: trace_lines tracer
  in
  let base = run 1 in
  check "retained set is non-trivial" true (List.length base > 100);
  List.iter
    (fun shards ->
      Alcotest.(check (list string))
        (Printf.sprintf "shards=%d trace lines identical" shards)
        base (run shards))
    [ 2; 4; 8 ]

(* --- always-keep rules and the exemplar pin guarantee --- *)

let test_keep_rules_and_exemplars () =
  (* A small overloaded fleet: sheds, cold starts and SLO violations all
     occur, and the tiny reservoir forces the rules to do the keeping. *)
  let t, tracer =
    traced_run ~servers:2 ~reservoir:16 ~shape:flash_shape ~duration_us:400.0 ()
  in
  let spans = Ftrace.retained tracer in
  let ids = Ftrace.retained_ids tracer in
  check "something was shed" true (Fleet.shed t > 0);
  let kept_with reason =
    List.length (List.filter (fun (k, _) -> k = reason) spans)
  in
  (* Every shed request survives sampling. *)
  check_int "all sheds retained" (Fleet.shed t) (kept_with "shed");
  check "slo keeps present" true (kept_with "slo" > 0);
  List.iter
    (fun (keep, sp) ->
      match sp.Fspan.outcome with
      | Fspan.Shed_lb | Fspan.Shed_member ->
          Alcotest.(check string) "shed spans tagged shed" "shed" keep
      | Fspan.Completed -> ())
    spans;
  (* Exemplar guarantee: every exemplar id the rollup names — per closed
     window and per objective row — is present in the retained set. *)
  let r = match Fleet.rollup t with Some r -> r | None -> failwith "no rollup" in
  let windows = Rollup.windows r in
  let some_window_exemplar = ref false in
  List.iter
    (fun (_, ws) ->
      List.iter
        (fun cw ->
          if cw.Rollup.cw_exemplar >= 0 then begin
            some_window_exemplar := true;
            check "window exemplar retained" true
              (List.mem cw.Rollup.cw_exemplar ids)
          end)
        ws)
    windows;
  check "windows carried exemplars" true !some_window_exemplar;
  List.iter
    (fun row ->
      if row.Rollup.r_exemplar >= 0 then
        check "row exemplar retained" true (List.mem row.Rollup.r_exemplar ids))
    (Rollup.rows r)

(* --- span JSONL round-trip --- *)

let test_span_json_roundtrip () =
  let sp = mk_span 42 in
  let sp = { sp with Fspan.lb_hit = true; cold = true; fn = "Get\"Cart" } in
  sp.Fspan.phases.(Fspan.phase_index Fspan.Cold_start) <- 17;
  let sp = { sp with Fspan.end_ps = Fspan.sum_phases sp } in
  let line = Fspan.to_json_line ~keep:"cold-start" sp in
  match Jord_util.Json.of_string line with
  | Error m -> Alcotest.fail m
  | Ok j -> (
      match Fspan.of_json j with
      | Error m -> Alcotest.fail m
      | Ok (keep, sp') ->
          Alcotest.(check string) "keep" "cold-start" keep;
          check "record round-trips" true (sp = sp'))

(* --- Sketch exemplar slot --- *)

let test_sketch_exemplar () =
  let s = Sketch.create () in
  check "empty has none" true (Sketch.exemplar s = None);
  Sketch.add_ex s 10 ~ex:3;
  Sketch.add_ex s 50 ~ex:7;
  Sketch.add_ex s 50 ~ex:5;  (* equal value: smaller id wins *)
  Sketch.add_ex s 20 ~ex:1;
  check "max value, min id tie" true (Sketch.exemplar s = Some (50, 5));
  Sketch.add s 99;  (* untagged observations never displace the exemplar *)
  check "plain add keeps exemplar" true (Sketch.exemplar s = Some (50, 5));
  (* Exemplars merge like the rest of the sketch: exact and commutative. *)
  let a = Sketch.create () and b = Sketch.create () in
  Sketch.add_ex a 10 ~ex:2;
  Sketch.add_ex b 50 ~ex:9;
  let ab = Sketch.copy a and ba = Sketch.copy b in
  Sketch.merge_into ~into:ab b;
  Sketch.merge_into ~into:ba a;
  check "merge picks the max" true (Sketch.exemplar ab = Some (50, 9));
  check "merge commutes" true (Sketch.equal ab ba)

(* --- Rollup CSV round-trip (the blame_csv conventions) --- *)

let test_rollup_csv_roundtrip () =
  let obj =
    {
      Slo.default with
      Slo.name = "t";
      threshold_ps = 10_000_000;
      window_ps = 1_000_000_000;
      budget = 0.1;
    }
  in
  (* An objective that sees no traffic still closes every window the run
     started: here one window, wider than the whole run. *)
  let r =
    Rollup.create
      [ obj; { obj with Slo.name = "empty"; fn = Some "nosuch"; window_ps = 10_000_000_000 } ]
  in
  for i = 0 to 99 do
    Rollup.observe r ~trace_id:i ~at_ps:(i * 30_000_000) ~fn:"f"
      ~latency_ps:((i + 1) * 200_000) ~shed:false
  done;
  Rollup.finish r ~now_ps:3_000_000_000;
  let csv = Rollup.report_csv r in
  match Rollup.parse_csv csv with
  | Error m -> Alcotest.fail m
  | Ok rows ->
      let expect_rows =
        List.fold_left
          (fun a (_, ws) -> a + Int.max 1 (List.length ws))
          0 (Rollup.windows r)
      in
      check_int "one row per objective x window" expect_rows (List.length rows);
      let field name row = List.assoc name row in
      (* Objective-level columns repeat on every sub-row; per-window columns
         carry the window history, ties to the exemplar machinery intact. *)
      let t_rows = List.filter (fun row -> field "objective" row = "t") rows in
      check "t has closed windows" true (List.length t_rows >= 3);
      List.iter
        (fun row ->
          check_int "requests repeats" 100 (int_of_string (field "requests" row));
          check "window parses" true (int_of_string (field "window" row) >= 0);
          check "window exemplar is a trace id" true
            (int_of_string (field "w_exemplar" row) >= 0))
        t_rows;
      (* The row exemplar is the max-latency trace id: observation 99. *)
      (match Rollup.rows r with
      | [ trow; _ ] -> check_int "row exemplar" 99 trow.Rollup.r_exemplar
      | _ -> Alcotest.fail "two rows expected");
      let empty_rows = List.filter (fun row -> field "objective" row = "empty") rows in
      (match empty_rows with
      | [ row ] ->
          check_int "the one started window closes empty" 0
            (int_of_string (field "window" row));
          check_int "no requests in it" 0 (int_of_string (field "w_total" row));
          Alcotest.(check string) "no-data verdict" "no-data" (field "verdict" row)
      | _ -> Alcotest.fail "one empty row expected");
      (* Parse errors are reported, not swallowed. *)
      match Rollup.parse_csv "a,b\n1\n" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "short row must fail"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_sampler_order_independent;
    Alcotest.test_case "fleet trace: byte-identical at shards 2/4/8" `Quick
      test_sharded_identical_traces;
    Alcotest.test_case "fleet trace: keep rules + exemplar pins" `Quick
      test_keep_rules_and_exemplars;
    Alcotest.test_case "fspan: JSONL round-trip" `Quick test_span_json_roundtrip;
    Alcotest.test_case "sketch: exemplar slot + merge" `Quick test_sketch_exemplar;
    Alcotest.test_case "rollup: CSV round-trip" `Quick test_rollup_csv_roundtrip;
  ]
