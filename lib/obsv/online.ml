module Trace = Jord_faas.Trace
module Sketch = Jord_telemetry.Sketch
module Json = Jord_util.Json

(* Exact integer sums over one objective's completed roots: the part of
   the post-hoc attribution the windowed core does not keep. *)
type sums = { mutable e2e_ps : int; phase_ps : int array }

type tracked = { sp : Span.t; mutable decided : bool }

type t = {
  core : Rollup.t;
  objs : (Slo.objective * sums) list;
  spans : (int, tracked) Hashtbl.t;
  kids : (int, int list) Hashtbl.t;
}

let create objectives =
  {
    core = Rollup.create objectives;
    objs =
      List.map
        (fun o -> (o, { e2e_ps = 0; phase_ps = Array.make Span.phase_count 0 }))
        objectives;
    spans = Hashtbl.create 1024;
    kids = Hashtbl.create 256;
  }

let rollup t = t.core

(* --- decided roots become observations --- *)

(* A completed root is observed in the window of its end. *)
let record_completion t (sp : Span.t) =
  let e2e = Span.e2e_ps sp in
  Rollup.observe t.core ~at_ps:sp.Span.end_ps ~fn:sp.Span.fn ~latency_ps:e2e ~shed:false
    ~trace_id:(-1);
  List.iter
    (fun ((o : Slo.objective), s) ->
      if (match o.Slo.fn with None -> true | Some fn -> fn = sp.Span.fn) then begin
        s.e2e_ps <- s.e2e_ps + e2e;
        Array.iteri (fun i v -> s.phase_ps.(i) <- s.phase_ps.(i) + v) sp.Span.phases
      end)
    t.objs

let rec forget t req_id =
  Hashtbl.remove t.spans req_id;
  match Hashtbl.find_opt t.kids req_id with
  | None -> ()
  | Some kids ->
      Hashtbl.remove t.kids req_id;
      List.iter (forget t) kids

let is_root (sp : Span.t) = sp.Span.parent_id < 0 && sp.Span.req_id = sp.Span.root_id

let observe t (e : Trace.event) =
  if e.Trace.req_id >= 0 then begin
    Rollup.advance t.core ~now_ps:e.Trace.at_ps;
    let tracked =
      match Hashtbl.find_opt t.spans e.Trace.req_id with
      | Some tr -> tr
      | None ->
          let tr = { sp = Span.fresh e; decided = false } in
          Hashtbl.add t.spans e.Trace.req_id tr;
          if e.Trace.parent_id >= 0 then
            Hashtbl.replace t.kids e.Trace.parent_id
              (e.Trace.req_id
              :: Option.value ~default:[] (Hashtbl.find_opt t.kids e.Trace.parent_id));
          tr
    in
    Span.feed tracked.sp e;
    if (not tracked.decided) && is_root tracked.sp then
      if tracked.sp.Span.state = Span.Done && Span.complete tracked.sp then begin
        tracked.decided <- true;
        record_completion t tracked.sp;
        forget t e.Trace.req_id
      end
      else if tracked.sp.Span.dead then begin
        (* Shed roots (queue-full drops, deadline timeouts) never complete
           but consume budget, in the window of the shedding instant. *)
        tracked.decided <- true;
        Rollup.observe t.core ~at_ps:e.Trace.at_ps ~fn:tracked.sp.Span.fn ~latency_ps:0
          ~shed:true ~trace_id:(-1);
        forget t e.Trace.req_id
      end
  end

let attach t tracer =
  Rollup.set_hook t.core (function
    | Rollup.Transition tr ->
        Trace.emit tracer ~at_ps:tr.Rollup.tr_at_ps ~kind:Trace.Alert ~req_id:(-1)
          ~root_id:(-1) ~fn:tr.Rollup.tr_objective ~core:(-1)
          ~detail:(if tr.Rollup.tr_firing then "fire" else "resolve")
          ()
    | Rollup.Candidate _ | Rollup.Promoted _ -> ());
  Trace.set_sink tracer (Some (observe t))

let finish t ~now_ps = Rollup.finish t.core ~now_ps

let replay ~objectives ?finish_ps events =
  let t = create objectives in
  let last = ref 0 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.at_ps > !last then last := e.Trace.at_ps;
      observe t e)
    events;
  finish t ~now_ps:(match finish_ps with Some ps -> ps | None -> !last);
  t

(* --- snapshots --- *)

type objective_snapshot = {
  s_objective : Slo.objective;
  s_completed : int;
  s_shed : int;
  s_bad : int;
  s_e2e_sum_ps : int;
  s_phase_sum_ps : int array;
  s_sketch : Sketch.t;
  s_quantile_ps : int;
  s_windows_closed : int;
  s_fired : int;
  s_resolved : int;
  s_firing : bool;
  s_windows : Rollup.closed_window list;
}

let snapshot t =
  List.map2
    (fun ((o, s), (r : Rollup.row)) (_, ws) ->
      {
        s_objective = o;
        s_completed = r.Rollup.r_requests - r.Rollup.r_shed;
        s_shed = r.Rollup.r_shed;
        s_bad = r.Rollup.r_bad;
        s_e2e_sum_ps = s.e2e_ps;
        s_phase_sum_ps = Array.copy s.phase_ps;
        s_sketch = Sketch.copy r.Rollup.r_sketch;
        s_quantile_ps = r.Rollup.r_quantile_ps;
        s_windows_closed = r.Rollup.r_windows_closed;
        s_fired = r.Rollup.r_fired;
        s_resolved = r.Rollup.r_resolved;
        s_firing = r.Rollup.r_firing;
        s_windows = ws;
      })
    (List.combine t.objs (Rollup.rows t.core))
    (Rollup.windows t.core)

(* --- telemetry --- *)

let register_metrics t ?(labels = []) registry =
  let module R = Jord_telemetry.Registry in
  List.iteri
    (fun i ((o : Slo.objective), _) ->
      let row () = List.nth (Rollup.rows t.core) i in
      let l = labels @ [ ("slo", o.Slo.name) ] in
      let c name help f =
        R.counter_fn registry ~help ~labels:l name (fun () -> float_of_int (f (row ())))
      in
      let g name help f = R.gauge_fn registry ~help ~labels:l name (fun () -> f (row ())) in
      c "jord_slo_requests_total" "Roots decided against this objective" (fun r ->
          r.Rollup.r_requests);
      c "jord_slo_bad_total" "Budget-consuming requests (over threshold or shed)"
        (fun r -> r.Rollup.r_bad);
      c "jord_slo_shed_total" "Shed roots charged to the objective" (fun r ->
          r.Rollup.r_shed);
      c "jord_slo_windows_closed_total" "Tumbling windows evaluated" (fun r ->
          r.Rollup.r_windows_closed);
      c "jord_slo_alerts_fired_total" "Burn-rate alert firings" (fun r -> r.Rollup.r_fired);
      c "jord_slo_alerts_resolved_total" "Burn-rate alert resolutions" (fun r ->
          r.Rollup.r_resolved);
      g "jord_slo_firing" "1 while the alert is firing" (fun r ->
          if r.Rollup.r_firing then 1.0 else 0.0);
      g "jord_slo_budget_remaining_ratio" "Share of the error budget not yet consumed"
        (fun r ->
          if r.Rollup.r_requests = 0 then 1.0
          else
            Float.max 0.0
              (1.0
              -. float_of_int r.Rollup.r_bad
                 /. (o.Slo.budget *. float_of_int r.Rollup.r_requests))))
    t.objs

(* --- rendering --- *)

let alerts_text t =
  match Rollup.transitions t.core with
  | [] -> "no alert transitions\n"
  | trs -> String.concat "" (List.map (fun tr -> Rollup.transition_line tr ^ "\n") trs)

let report_text t =
  let rows = Rollup.rows t.core in
  Jord_util.Render.table
    ~title:(Printf.sprintf "SLO report (%d objectives)" (List.length rows))
    ~header:Rollup.verdict_header
    ~rows:(List.map Rollup.verdict_cells rows)
    ()
  ^ String.concat ""
      (List.map
         (fun (o, _) -> Printf.sprintf "%s: %s\n" o.Slo.name (Slo.describe o))
         t.objs)
  ^ Rollup.alert_log t.core

(* Per objective, its closed windows with their start and end. *)
let iter_windows t f =
  List.iter2
    (fun ((o : Slo.objective), _) (_, ws) ->
      f o
        (List.map
           (fun (w : Rollup.closed_window) ->
             let i = w.Rollup.cw_index in
             (w, Report.us (i * o.Slo.window_ps), Report.us ((i + 1) * o.Slo.window_ps)))
           ws))
    t.objs (Rollup.windows t.core)

let burn_text t =
  let buf = Buffer.create 2048 in
  iter_windows t (fun o ws ->
      Buffer.add_string buf
        (Jord_util.Render.table
           ~title:(Printf.sprintf "burn rate: %s (%s)" o.Slo.name (Slo.describe o))
           ~header:
             [ "window"; "start_us"; "end_us"; "total"; "bad"; "burn_fast"; "burn_slow"; "state" ]
           ~rows:
             (List.map
                (fun ((w : Rollup.closed_window), start_us, end_us) ->
                  [
                    string_of_int w.Rollup.cw_index;
                    Printf.sprintf "%.1f" start_us;
                    Printf.sprintf "%.1f" end_us;
                    string_of_int w.Rollup.cw_total;
                    string_of_int w.Rollup.cw_bad;
                    Printf.sprintf "%.2f" w.Rollup.cw_burn_fast;
                    Printf.sprintf "%.2f" w.Rollup.cw_burn_slow;
                    (if w.Rollup.cw_firing then "FIRING" else "ok");
                  ])
                ws)
           ());
      Buffer.add_string buf
        (Printf.sprintf "burn_fast: %s\n\n"
           (Jord_util.Render.sparkline
              (List.map (fun ((w : Rollup.closed_window), _, _) -> w.Rollup.cw_burn_fast) ws))));
  Buffer.contents buf

let burn_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "objective,window,start_us,end_us,total,bad,burn_fast,burn_slow,firing\n";
  iter_windows t (fun o ws ->
      List.iter
        (fun ((w : Rollup.closed_window), start_us, end_us) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.3f,%.3f,%d,%d,%.4f,%.4f,%d\n" o.Slo.name
               w.Rollup.cw_index start_us end_us w.Rollup.cw_total w.Rollup.cw_bad
               w.Rollup.cw_burn_fast w.Rollup.cw_burn_slow
               (if w.Rollup.cw_firing then 1 else 0)))
        ws);
  Buffer.contents buf

let transition_json (tr : Rollup.transition) =
  Json.Obj
    [
      ("at_us", Json.Float (Report.us tr.Rollup.tr_at_ps));
      ("objective", Json.String tr.Rollup.tr_objective);
      ("transition", Json.String (if tr.Rollup.tr_firing then "fire" else "resolve"));
      ("window", Json.Int tr.Rollup.tr_window);
      ("burn_fast", Json.Float tr.Rollup.tr_burn_fast);
      ("burn_slow", Json.Float tr.Rollup.tr_burn_slow);
    ]

let alerts_json t =
  Json.to_string
    (Json.Obj
       [
         ("jord_slo_alerts", Json.Int 1);
         ("alerts", Json.List (List.map transition_json (Rollup.transitions t.core)));
       ])

let report_json t =
  let obj_json s =
    let o = s.s_objective in
    Json.Obj
      [
        ("name", Json.String o.Slo.name);
        ("spec", Json.String (Slo.to_string o));
        ("completed", Json.Int s.s_completed);
        ("shed", Json.Int s.s_shed);
        ("bad", Json.Int s.s_bad);
        ("e2e_sum_ps", Json.Int s.s_e2e_sum_ps);
        ( "phase_sum_ps",
          Json.Obj
            (Array.to_list
               (Array.map
                  (fun ph ->
                    (Span.phase_name ph, Json.Int s.s_phase_sum_ps.(Span.phase_index ph)))
                  Span.all_phases)) );
        ("measured_quantile_us", Json.Float (Report.us s.s_quantile_ps));
        ("threshold_us", Json.Float (Report.us o.Slo.threshold_ps));
        ("windows_closed", Json.Int s.s_windows_closed);
        ("alerts_fired", Json.Int s.s_fired);
        ("alerts_resolved", Json.Int s.s_resolved);
        ("firing", Json.Bool s.s_firing);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("jord_slo_report", Json.Int 1);
         ("objectives", Json.List (List.map obj_json (snapshot t)));
         ("alerts", Json.List (List.map transition_json (Rollup.transitions t.core)));
       ])
