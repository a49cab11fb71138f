(* The online SLO plane: sketches, objective parsing, burn-rate alerting.

   The anchor is the online/post-hoc equivalence property: the streaming
   pipeline's aggregates (completed/shed/bad counts, integer-ps end-to-end
   and per-phase sums) are EXACTLY equal to a post-hoc Span fold over the
   same trace, under random workloads and fault plans — and sketch merging
   is associative/commutative, so cluster roll-up order never matters. *)

open Jord_faas
module Time = Jord_sim.Time
module Engine = Jord_sim.Engine
module Span = Jord_obsv.Span
module Slo = Jord_obsv.Slo
module Online = Jord_obsv.Online
module Rollup = Jord_obsv.Rollup
module Sketch = Jord_telemetry.Sketch

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- sketch --- *)

let test_sketch_exact_small () =
  let s = Sketch.create () in
  List.iter (Sketch.add s) [ 0; 1; 5; 15; 15; 3 ];
  Alcotest.(check int) "count" 6 (Sketch.count s);
  Alcotest.(check int) "sum" 39 (Sketch.sum s);
  Alcotest.(check int) "min" 0 (Sketch.min_v s);
  Alcotest.(check int) "max" 15 (Sketch.max_v s);
  (* Values below 16 sit in exact buckets: quantiles are exact. *)
  Alcotest.(check int) "p50 exact" 3 (Sketch.quantile s 50.0);
  Alcotest.(check int) "p100 exact" 15 (Sketch.quantile s 100.0);
  Alcotest.(check bool) "negative rejected" true
    (match Sketch.add s (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_sketch_error_bound () =
  let s = Sketch.create () in
  let vals = List.init 500 (fun i -> 17 + (i * i * 7)) in
  List.iter (Sketch.add s) vals;
  let sorted = List.sort compare vals in
  let arr = Array.of_list sorted in
  List.iter
    (fun q ->
      let rank =
        Int.max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int (Array.length arr))))
      in
      let exact = arr.(rank - 1) in
      let approx = Sketch.quantile s q in
      let err =
        abs_float (float_of_int (approx - exact)) /. float_of_int exact
      in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within 6.25%% (exact=%d approx=%d)" q exact approx)
        true (err <= 0.0625))
    [ 10.0; 50.0; 90.0; 99.0 ]

let arb_values =
  QCheck.(list_of_size Gen.(int_range 0 200) (int_range 0 1_000_000))

let sketch_of vals =
  let s = Sketch.create () in
  List.iter (Sketch.add s) vals;
  s

let prop_sketch_merge_assoc_commut =
  QCheck.Test.make
    ~name:"sketch merge: associative, commutative, add-order-independent"
    ~count:100
    QCheck.(triple arb_values arb_values arb_values)
    (fun (a, b, c) ->
      let sa = sketch_of a and sb = sketch_of b and sc = sketch_of c in
      let ab_c = Sketch.merge (Sketch.merge sa sb) sc in
      let a_bc = Sketch.merge sa (Sketch.merge sb sc) in
      let ba = Sketch.merge sb sa in
      let all = sketch_of (a @ b @ c) in
      let shuffled = sketch_of (List.rev a @ c @ List.rev b) in
      Sketch.equal ab_c a_bc
      && Sketch.equal (Sketch.merge sa sb) ba
      && Sketch.equal ab_c all
      && Sketch.equal all shuffled)

let test_quantile_of_buckets () =
  (* The Registry.Hist cumulative-ladder variant used by `jordctl stats`. *)
  let buckets = [ (10.0, 2); (100.0, 5); (1000.0, 9); (infinity, 10) ] in
  Alcotest.(check (float 0.0)) "p20 in first bucket" 10.0
    (Sketch.quantile_of_buckets buckets 20.0);
  Alcotest.(check (float 0.0)) "p50 in second" 100.0
    (Sketch.quantile_of_buckets buckets 50.0);
  Alcotest.(check (float 0.0)) "p90 in third" 1000.0
    (Sketch.quantile_of_buckets buckets 90.0);
  (* The infinite overflow bucket falls back to the last finite bound. *)
  Alcotest.(check (float 0.0)) "p100 clamps to last finite" 1000.0
    (Sketch.quantile_of_buckets buckets 100.0)

(* --- objective parsing --- *)

let test_parse_presets () =
  (match Slo.parse "none" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "preset none must select no objectives");
  (match Slo.parse "default" with
  | Ok [ o ] -> Alcotest.(check string) "name" "p99-latency" o.Slo.name
  | _ -> Alcotest.fail "preset default is one objective");
  match Slo.parse "ci,threshold_us=5" with
  | Ok [ o ] ->
      Alcotest.(check string) "preset name kept" "p99-burn" o.Slo.name;
      Alcotest.(check int) "override applied" 5_000_000 o.Slo.threshold_ps
  | Ok _ -> Alcotest.fail "one objective expected"
  | Error e -> Alcotest.fail e

let test_parse_inline_and_errors () =
  (match Slo.parse "p=95,threshold_us=10;name=tail,p=99.9,threshold_us=50" with
  | Ok [ a; b ] ->
      Alcotest.(check string) "auto-named" "p95<10us" a.Slo.name;
      Alcotest.(check (float 1e-12)) "budget re-derived from p" 0.05 a.Slo.budget;
      Alcotest.(check string) "explicit name" "tail" b.Slo.name
  | Ok _ -> Alcotest.fail "two objectives expected"
  | Error e -> Alcotest.fail e);
  let is_error spec frag =
    match Slo.parse spec with
    | Ok _ -> Alcotest.fail (spec ^ " must be rejected")
    | Error e ->
        Alcotest.(check bool) (spec ^ ": error mentions " ^ frag) true
          (contains frag e)
  in
  is_error "bogus=1" "unknown key";
  is_error "p=101" "(0, 100)";
  is_error "threshold_us=0" "threshold_us";
  is_error "p=99,fast=3,slow=2" "slow";
  is_error "name=a,threshold_us=1;name=a,threshold_us=2" "duplicate"

let test_to_string_roundtrip () =
  List.iter
    (fun (_, objectives) ->
      List.iter
        (fun o ->
          match Slo.parse (Slo.to_string o) with
          | Ok [ o' ] ->
              Alcotest.(check bool)
                (o.Slo.name ^ " round-trips") true (o = o')
          | _ -> Alcotest.fail (Slo.to_string o ^ " must parse back"))
        objectives)
    Slo.presets

let test_spec_file () =
  let path = Filename.temp_file "jord_slo" ".slo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# latency objectives\n\nname=fast,p=99,threshold_us=10\nname=tail,p=99.9,threshold_us=80\n";
      close_out oc;
      (match Slo.load ~path with
      | Ok [ a; b ] ->
          Alcotest.(check string) "first" "fast" a.Slo.name;
          Alcotest.(check string) "second" "tail" b.Slo.name
      | Ok _ -> Alcotest.fail "two objectives expected"
      | Error e -> Alcotest.fail e);
      let oc = open_out path in
      output_string oc "name=ok,p=99\nbogus=1\n";
      close_out oc;
      match Slo.load ~path with
      | Ok _ -> Alcotest.fail "bad line must be rejected"
      | Error e ->
          Alcotest.(check bool) "error carries file:line" true
            (contains (path ^ ":2") e))

(* --- parser fuzzing --- *)

let gen_spec =
  Test_chaos.gen_spec
    [
      "name="; "fn="; "kind="; "p="; "threshold_us="; "window_us="; "budget="; "fast=";
      "slow="; "burn="; "latency"; "availability"; ";"; "ci"; "default"; "tight"; "none";
    ]

let prop_parse_fuzz =
  QCheck.Test.make ~name:"slo parse: no exception escapes, every Ok objective validates"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_spec)
    (fun spec ->
      match Slo.parse spec with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok objectives -> List.for_all (fun o -> Slo.validate o = Ok o) objectives)

(* Random objectives. Thresholds and windows are whole microseconds, the
   spec's unit, so their picosecond fields survive the conversion; every
   other number is arbitrary, and the canonical spelling prints the
   shortest decimal that reads back exactly. *)
let gen_objective =
  let open QCheck.Gen in
  let* name = oneofl [ "a"; "tail"; "p99-x"; "checkout.slo" ] in
  let* fn = oneofl [ None; Some "entry"; Some "GetCart" ] in
  let* kind = oneofl [ Slo.Latency; Slo.Availability ] in
  let* percentile = float_range 0.001 99.999 in
  let* threshold_us = int_range 1 5000 in
  let* window_us = int_range 1 100_000 in
  let* budget = float_range 1e-6 0.9999999 in
  let* fast_windows = int_range 1 4 in
  let* extra = int_range 0 6 in
  let* burn_threshold = float_range 0.01 100.0 in
  return
    {
      Slo.name;
      fn;
      kind;
      percentile;
      threshold_ps = threshold_us * 1_000_000;
      window_ps = window_us * 1_000_000;
      budget;
      fast_windows;
      slow_windows = fast_windows + extra;
      burn_threshold;
    }

let prop_to_string_roundtrip =
  QCheck.Test.make ~name:"slo parse . to_string = id on random objectives" ~count:500
    (QCheck.make ~print:Slo.to_string gen_objective)
    (fun o -> Slo.validate o = Ok o && Slo.parse (Slo.to_string o) = Ok [ o ])

(* --- rule-engine edge cases over synthetic traces --- *)

let ev ?(kind = Trace.Arrive) ?(req = 0) ?(dur = 0) ?(sid = 0) ?(fn = "f") at =
  {
    Trace.at_ps = at;
    kind;
    req_id = req;
    root_id = req;
    parent_id = -1;
    fn;
    core = 0;
    sid;
    dur_ps = dur;
    stall_ps = 0;
    detail = "";
  }

(* One root that completes with end-to-end latency [e2e]. *)
let root ~req ~at ~e2e ?(sid = 0) ?(fn = "f") () =
  [ ev ~req ~sid ~fn at; ev ~kind:Trace.Complete ~req ~sid ~fn ~dur:e2e at ]

let emit_ev tr (e : Trace.event) =
  Trace.emit tr ~at_ps:e.Trace.at_ps ~kind:e.Trace.kind ~req_id:e.Trace.req_id
    ~root_id:e.Trace.root_id ~parent_id:e.Trace.parent_id ~fn:e.Trace.fn
    ~core:e.Trace.core ~sid:e.Trace.sid ~dur_ps:e.Trace.dur_ps
    ~stall_ps:e.Trace.stall_ps ~detail:e.Trace.detail ()

let flap_objective =
  {
    Slo.default with
    Slo.name = "flap";
    threshold_ps = 100;
    window_ps = 1000;
    budget = 0.5;
    fast_windows = 1;
    slow_windows = 2;
    burn_threshold = 1.0;
  }

let test_alert_flap_ordering () =
  (* Window 0: bad -> fire. Window 1: good -> resolve. Window 2: bad ->
     fire again. Transitions must come out chronological and alternating. *)
  let events =
    root ~req:0 ~at:0 ~e2e:200 ()
    @ root ~req:1 ~at:1000 ~e2e:50 ()
    @ root ~req:2 ~at:2000 ~e2e:200 ()
  in
  let t = Online.replay ~objectives:[ flap_objective ] ~finish_ps:2999 events in
  let trs = Rollup.transitions (Online.rollup t) in
  Alcotest.(check (list (pair int bool)))
    "fire/resolve/fire at window closes"
    [ (1000, true); (2000, false); (3000, true) ]
    (List.map (fun tr -> (tr.Rollup.tr_at_ps, tr.Rollup.tr_firing)) trs);
  match Online.snapshot t with
  | [ s ] ->
      Alcotest.(check int) "fired" 2 s.Online.s_fired;
      Alcotest.(check int) "resolved" 1 s.Online.s_resolved;
      Alcotest.(check bool) "still firing" true s.Online.s_firing
  | _ -> Alcotest.fail "one objective"

let test_zero_traffic_burns_nothing () =
  (* Empty windows burn no budget, never fire, and resolve a firing alert. *)
  let t = Online.replay ~objectives:[ flap_objective ] ~finish_ps:5000 [] in
  (match Online.snapshot t with
  | [ s ] ->
      Alcotest.(check int) "no requests" 0 (s.Online.s_completed + s.Online.s_shed);
      Alcotest.(check int) "no alerts" 0 (s.Online.s_fired + s.Online.s_resolved);
      Alcotest.(check bool) "windows were still evaluated" true
        (s.Online.s_windows_closed >= 5);
      Alcotest.(check bool) "every window burns zero" true
        (List.for_all
           (fun w -> w.Rollup.cw_burn_fast = 0.0 && w.Rollup.cw_burn_slow = 0.0)
           s.Online.s_windows)
  | _ -> Alcotest.fail "one objective");
  (* A bad window followed by silence: the fire must resolve on the first
     empty window, not linger. *)
  let t =
    Online.replay ~objectives:[ flap_objective ] ~finish_ps:4999
      (root ~req:0 ~at:0 ~e2e:200 ())
  in
  let trs = Rollup.transitions (Online.rollup t) in
  Alcotest.(check (list (pair int bool)))
    "fire then resolve on the empty window"
    [ (1000, true); (2000, false) ]
    (List.map (fun tr -> (tr.Rollup.tr_at_ps, tr.Rollup.tr_firing)) trs)

(* One untraced completion of "f" (or [fn]) in the window of [at]. *)
let observe ?(fn = "f") r at =
  Rollup.observe r ~at_ps:at ~fn ~latency_ps:50 ~shed:false ~trace_id:(-1)

let test_post_run_window () =
  (* A run that ends on a window boundary closes the windows it started
     and none after it. *)
  let t = Online.replay ~objectives:[ flap_objective ] ~finish_ps:5000 [] in
  (match Online.snapshot t with
  | [ s ] ->
      Alcotest.(check int) "five windows" 5 s.Online.s_windows_closed;
      Alcotest.(check bool) "every closed window starts before the end" true
        (List.for_all
           (fun w -> w.Rollup.cw_index * flap_objective.Slo.window_ps < 5000)
           s.Online.s_windows)
  | _ -> Alcotest.fail "one objective");
  let closed r =
    match Rollup.windows r with
    | [ (_, ws) ] -> List.map (fun w -> (w.Rollup.cw_index, w.Rollup.cw_total)) ws
    | _ -> Alcotest.fail "one objective"
  in
  (* An empty final partial window closes too... *)
  let r = Rollup.create [ flap_objective ] in
  Rollup.finish r ~now_ps:2500;
  Alcotest.(check (list (pair int int))) "partial window closed"
    [ (0, 0); (1, 0); (2, 0) ]
    (closed r);
  (* ...and so does a later window holding an observation (a root whose
     end lies past the end of the run), however far ahead it lies. *)
  let r = Rollup.create [ flap_objective ] in
  observe r 500;
  observe r 9500;
  Rollup.finish r ~now_ps:1000;
  Alcotest.(check (list (pair int int))) "through the observed window"
    (List.init 10 (fun i -> (i, if i = 0 || i = 9 then 1 else 0)))
    (closed r)

let test_closed_window_contract () =
  let raises f = match f () with exception Invalid_argument _ -> true | () -> false in
  let r = Rollup.create [ flap_objective ] in
  observe r 500;
  Rollup.advance r ~now_ps:2000;
  Alcotest.(check bool) "observation for a closed window" true
    (raises (fun () -> observe r 1999));
  Alcotest.(check bool) "open window still accepts" false (raises (fun () -> observe r 2000));
  let only_f = Rollup.create [ { flap_objective with Slo.fn = Some "f" } ] in
  Rollup.advance only_f ~now_ps:5000;
  Alcotest.(check bool) "another function's observation is not filed" false
    (raises (fun () -> observe ~fn:"g" only_f 0));
  Rollup.finish r ~now_ps:3000;
  Alcotest.(check bool) "observation after finish" true (raises (fun () -> observe r 9000));
  (* Online: a root completing (by its end) in a window the watermark
     already closed is a contract violation, not a silent loss. *)
  Alcotest.(check bool) "online root in a closed window" true
    (raises (fun () ->
         ignore
           (Online.replay ~objectives:[ flap_objective ]
              (root ~req:1 ~at:2500 ~e2e:10 () @ root ~req:0 ~at:400 ~e2e:100 ()))))

let test_observe_allocates_nothing () =
  (* The fleet files one observation per request: a traced completion in
     the open window must not touch the minor heap. *)
  let r = Rollup.create [ flap_objective; { flap_objective with Slo.name = "g"; fn = Some "g" } ] in
  let file i =
    Rollup.observe r ~at_ps:(i / 1000) ~fn:"f" ~latency_ps:50 ~shed:false ~trace_id:i
  in
  file 0;
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    file i
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words for 10k observations" words) true
    (words < 100.0)

let test_shed_consumes_budget () =
  (* A shed root (Timeout) counts as bad without a latency observation. *)
  let events =
    root ~req:0 ~at:0 ~e2e:50 ()
    @ [ ev ~req:1 100; ev ~kind:Trace.Timeout ~req:1 500 ]
  in
  let t = Online.replay ~objectives:[ flap_objective ] ~finish_ps:999 events in
  match Online.snapshot t with
  | [ s ] ->
      Alcotest.(check int) "completed" 1 s.Online.s_completed;
      Alcotest.(check int) "shed" 1 s.Online.s_shed;
      Alcotest.(check int) "bad = shed only" 1 s.Online.s_bad;
      Alcotest.(check int) "sketch sees completions only" 1
        (Sketch.count s.Online.s_sketch);
      Alcotest.(check int) "one window, two decided" 2
        (match s.Online.s_windows with [ w ] -> w.Rollup.cw_total | _ -> -1)
  | _ -> Alcotest.fail "one objective"

let test_availability_objective () =
  (* Parsing and round-trip: [kind=availability] switches what consumes
     the error budget; latency objectives keep their exact spelling (no
     [kind=] ever emitted for them). *)
  let avail =
    match Slo.parse "kind=availability,threshold_us=1" with
    | Ok [ o ] -> o
    | Ok _ -> Alcotest.fail "one objective expected"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "kind parsed" true (avail.Slo.kind = Slo.Availability);
  Alcotest.(check bool) "auto-name" true (contains "avail>=" avail.Slo.name);
  Alcotest.(check bool) "to_string keeps kind" true
    (contains "kind=availability" (Slo.to_string avail));
  (match Slo.parse (Slo.to_string avail) with
  | Ok [ o' ] -> Alcotest.(check bool) "round-trips" true (avail = o')
  | _ -> Alcotest.fail "availability objective must parse back");
  Alcotest.(check bool) "latency spelling unchanged" false
    (contains "kind=" (Slo.to_string Slo.default));
  (match Slo.parse "kind=bogus" with
  | Ok _ -> Alcotest.fail "kind=bogus must be rejected"
  | Error e ->
      Alcotest.(check bool) "error mentions kind" true (contains "kind" e));
  (* Budget semantics: a slow completion never burns availability budget;
     a shed (timed-out) request does. *)
  let obj =
    { flap_objective with Slo.name = "avail"; kind = Slo.Availability }
  in
  let events =
    root ~req:0 ~at:0 ~e2e:500 ()
    @ [ ev ~req:1 100; ev ~kind:Trace.Timeout ~req:1 500 ]
  in
  let t = Online.replay ~objectives:[ obj ] ~finish_ps:999 events in
  match Online.snapshot t with
  | [ s ] ->
      Alcotest.(check int) "completed" 1 s.Online.s_completed;
      Alcotest.(check int) "shed" 1 s.Online.s_shed;
      Alcotest.(check int) "only the shed is bad" 1 s.Online.s_bad
  | _ -> Alcotest.fail "one objective"

let test_fn_filter () =
  let events =
    root ~req:0 ~at:0 ~e2e:200 ~fn:"a" () @ root ~req:1 ~at:10 ~e2e:200 ~fn:"b" ()
  in
  let only_a = { flap_objective with Slo.name = "a-only"; fn = Some "a" } in
  let t =
    Online.replay ~objectives:[ only_a; flap_objective ] ~finish_ps:999 events
  in
  match Online.snapshot t with
  | [ a; all ] ->
      Alcotest.(check int) "fn filter counts only its function" 1
        a.Online.s_completed;
      Alcotest.(check int) "unfiltered counts both" 2 all.Online.s_completed
  | _ -> Alcotest.fail "two objectives"

(* --- alert trace events and Perfetto markers --- *)

let test_alert_events_and_markers () =
  let tracer = Trace.create () in
  let t = Online.create [ flap_objective ] in
  Online.attach t tracer;
  List.iter (emit_ev tracer) (root ~req:0 ~at:0 ~e2e:200 ());
  (* Advancing the watermark past the window end via the sink closes the
     window and emits the Alert event into the same ring. *)
  List.iter (emit_ev tracer) (root ~req:1 ~at:1500 ~e2e:50 ());
  let alerts =
    List.filter (fun e -> e.Trace.kind = Trace.Alert) (Trace.events tracer)
  in
  (match alerts with
  | [ e ] ->
      Alcotest.(check int) "alert is a system event" (-1) e.Trace.req_id;
      Alcotest.(check string) "objective name" "flap" e.Trace.fn;
      Alcotest.(check string) "fire" "fire" e.Trace.detail;
      Alcotest.(check int) "stamped at the window end" 1000 e.Trace.at_ps
  | _ -> Alcotest.fail "exactly one alert so far");
  (* The live Chrome exporter renders alerts as global instant markers. *)
  let json = Trace.to_chrome_json tracer in
  Alcotest.(check bool) "marker name" true (contains "slo:flap:fire" json);
  Alcotest.(check bool) "global scope" true (contains "\"s\":\"g\"" json);
  (* Span building skips system events, so attribution is untouched. *)
  let r = Span.of_trace tracer in
  Alcotest.(check (list string)) "conservation unaffected" []
    (Span.conservation_violations r)

let test_alert_events_roundtrip_tracefile () =
  let tracer = Trace.create () in
  let t = Online.create [ flap_objective ] in
  Online.attach t tracer;
  List.iter (emit_ev tracer)
    (root ~req:0 ~at:0 ~e2e:200 () @ root ~req:1 ~at:1500 ~e2e:50 ());
  let path = Filename.temp_file "jord_slo_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Jord_obsv.Tracefile.save ~path tracer;
      match Jord_obsv.Tracefile.load ~path with
      | Error e -> Alcotest.fail e
      | Ok (Jord_obsv.Tracefile.Fleet _) -> Alcotest.fail "loaded as a fleet trace"
      | Ok (Jord_obsv.Tracefile.Server loaded) ->
          Alcotest.(check bool) "alert events survive the round-trip" true
            (loaded.Jord_obsv.Tracefile.events = Trace.events tracer))

(* --- the equivalence anchor --- *)

let slo_objectives =
  [
    {
      Slo.default with
      Slo.name = "all";
      threshold_ps = 12_000_000;
      window_ps = 20_000_000;
      budget = 0.1;
      fast_windows = 1;
      slow_windows = 3;
    };
    {
      Slo.default with
      Slo.name = "entry";
      fn = Some "entry";
      threshold_ps = 9_000_000;
      window_ps = 50_000_000;
      budget = 0.05;
      fast_windows = 2;
      slow_windows = 4;
    };
  ]

let chaos_run spec =
  let plan =
    {
      Jord_fault_inject.Plan.seed = spec.Test_chaos.fseed;
      crash = float_of_int spec.Test_chaos.crash_pm /. 1000.0;
      restart_us = 5.0;
      stall = 0.05;
      stall_us = 1.0;
      loss = float_of_int spec.Test_chaos.loss_pm /. 1000.0;
      dup = float_of_int spec.Test_chaos.dup_pm /. 1000.0;
      jitter_us = 1.0;
      slow = 0.05;
      slow_factor = 2.0;
      server_crash = 0.0;
      server_down_us = 200.0;
      warm_loss = 1.0;
    }
  in
  let config =
    {
      Test_cluster.small_config with
      Server.seed = spec.Test_chaos.wseed;
      fault_plan = Some plan;
    }
  in
  let cluster =
    Cluster.create ~forward_after:2 ~servers:3 ~config Jord_exp.Exp_common.fanout_app
  in
  let tracer = Trace.create ~capacity:(1 lsl 17) () in
  Cluster.set_tracer cluster (Some tracer);
  let live = Online.create slo_objectives in
  Online.attach live tracer;
  let engine = Cluster.engine cluster in
  for i = 0 to 49 do
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 1200.0))
      (fun _ -> Cluster.submit cluster ())
  done;
  Cluster.run cluster;
  let now_ps = Engine.now engine in
  Online.finish live ~now_ps;
  (tracer, live, now_ps)

(* The post-hoc expectation for one objective, from the Span fold. *)
let expected_of r (o : Slo.objective) =
  let matches sp =
    match o.Slo.fn with None -> true | Some fn -> fn = sp.Span.fn
  in
  let roots = List.filter matches (Span.roots r) in
  let completed = List.filter Span.complete roots in
  let shed =
    List.filter (fun sp -> sp.Span.dead && not (Span.complete sp)) roots
  in
  let bad_done =
    List.filter (fun sp -> Span.e2e_ps sp > o.Slo.threshold_ps) completed
  in
  let e2e_sum = List.fold_left (fun a sp -> a + Span.e2e_ps sp) 0 completed in
  let phase_sum = Array.make Span.phase_count 0 in
  List.iter
    (fun sp ->
      Array.iteri (fun i v -> phase_sum.(i) <- phase_sum.(i) + v) sp.Span.phases)
    completed;
  ( List.length completed,
    List.length shed,
    List.length bad_done + List.length shed,
    e2e_sum,
    phase_sum )

let prop_online_equals_posthoc =
  QCheck.Test.make
    ~name:
      "online aggregates exactly equal the post-hoc Span fold (counts, \
       integer-ps sums, phase attribution) under random chaos"
    ~count:8 Test_chaos.arb_chaos_spec
    (fun spec ->
      let tracer, live, now_ps = chaos_run spec in
      let r = Span.of_trace tracer in
      let no_ambiguous_roots =
        List.for_all
          (fun sp -> not (Span.complete sp && sp.Span.dead))
          (Span.roots r)
      in
      let snaps = Online.snapshot live in
      no_ambiguous_roots
      && List.length snaps = List.length slo_objectives
      && List.for_all
           (fun s ->
             let completed, shed, bad, e2e_sum, phase_sum =
               expected_of r s.Online.s_objective
             in
             s.Online.s_completed = completed
             && s.Online.s_shed = shed
             && s.Online.s_bad = bad
             && s.Online.s_e2e_sum_ps = e2e_sum
             && s.Online.s_phase_sum_ps = phase_sum
             && Sketch.count s.Online.s_sketch = completed
             && Sketch.sum s.Online.s_sketch = e2e_sum
             (* All decided roots landed in some closed window. *)
             && List.fold_left
                  (fun a w -> a + w.Rollup.cw_total)
                  0 s.Online.s_windows
                = completed + shed)
           snaps
      (* A replay of the recorded events (which include the live run's own
         alert events) reproduces the live pipeline exactly. *)
      && Online.snapshot
           (Online.replay ~objectives:slo_objectives ~finish_ps:now_ps
              (Trace.events tracer))
         = snaps)

(* --- reports --- *)

let test_reports_render () =
  let _, live, _ =
    chaos_run
      { Test_chaos.wseed = 3; fseed = 7; crash_pm = 40; loss_pm = 60; dup_pm = 20 }
  in
  let report = Online.report_text live in
  Alcotest.(check bool) "report names objectives" true
    (contains "all" report && contains "entry" report);
  let json = Online.report_json live in
  Alcotest.(check bool) "json parses" true
    (match Jord_util.Json.of_string json with Ok _ -> true | Error _ -> false);
  let alerts = Online.alerts_json live in
  Alcotest.(check bool) "alerts json parses" true
    (match Jord_util.Json.of_string alerts with Ok _ -> true | Error _ -> false);
  let csv = Online.burn_csv live in
  Alcotest.(check bool) "csv has a header" true
    (contains "objective,window" csv)

let suite =
  [
    Alcotest.test_case "sketch: exact below 16" `Quick test_sketch_exact_small;
    Alcotest.test_case "sketch: 6.25% quantile error bound" `Quick
      test_sketch_error_bound;
    Alcotest.test_case "quantile over Registry.Hist ladders" `Quick
      test_quantile_of_buckets;
    Alcotest.test_case "slo: presets and overrides" `Quick test_parse_presets;
    Alcotest.test_case "slo: inline objectives and rejects" `Quick
      test_parse_inline_and_errors;
    Alcotest.test_case "slo: to_string round-trips" `Quick
      test_to_string_roundtrip;
    Alcotest.test_case "slo: spec files" `Quick test_spec_file;
    Alcotest.test_case "alerts: flap ordering" `Quick test_alert_flap_ordering;
    Alcotest.test_case "alerts: zero traffic burns nothing" `Quick
      test_zero_traffic_burns_nothing;
    Alcotest.test_case "windows: none after the run ends" `Quick test_post_run_window;
    Alcotest.test_case "windows: a closed window takes no observation" `Quick
      test_closed_window_contract;
    Alcotest.test_case "core: filing an observation allocates nothing" `Quick
      test_observe_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_parse_fuzz;
    QCheck_alcotest.to_alcotest prop_to_string_roundtrip;
    Alcotest.test_case "shed requests consume budget" `Quick
      test_shed_consumes_budget;
    Alcotest.test_case "availability objectives parse and burn on shed only"
      `Quick test_availability_objective;
    Alcotest.test_case "fn filters scope objectives" `Quick test_fn_filter;
    Alcotest.test_case "alert trace events and Perfetto markers" `Quick
      test_alert_events_and_markers;
    Alcotest.test_case "alert events round-trip trace files" `Quick
      test_alert_events_roundtrip_tracefile;
    Alcotest.test_case "reports render and parse" `Quick test_reports_render;
    QCheck_alcotest.to_alcotest prop_sketch_merge_assoc_commut;
    QCheck_alcotest.to_alcotest prop_online_equals_posthoc;
  ]
