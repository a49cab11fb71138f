module Trace = Jord_faas.Trace
module Json = Jord_util.Json

(* Offline exporters over a loaded trace: the Chrome/Perfetto document, and
   JSON/CSV blame profiles per function. The document is Trace's one
   writer ({!Jord_faas.Trace.chrome_events}, the live export's tracks and
   entries) plus the flow arrows that need the span forest: parent -> child
   spawns and cross-server hops. *)

(* Flow-id spaces: spawn flows use the child's req_id, hop flows an offset
   counter, so the two families never collide. *)
let hop_flow_base = 1 lsl 30

(* Spawn flows: an arrow from the parent's running segment at the child's
   birth to the child's first executor segment. *)
let spawn_flows (r : Span.result) =
  let out = ref [] in
  Span.iter_spans r (fun sp ->
      if sp.Span.parent_id >= 0 && sp.Span.born >= 0 then
        match Span.find r sp.Span.parent_id with
        | None -> ()
        | Some parent -> (
            let at_birth =
              List.find_opt
                (fun (s : Span.seg) -> s.Span.t0 <= sp.Span.born && sp.Span.born <= s.Span.t1)
                (Span.segments parent)
            in
            match (at_birth, Span.segments sp) with
            | Some pseg, first :: _ ->
                out :=
                  Trace.chrome_flow ~ph:"f" ~id:sp.Span.req_id ~pid:(first.Span.seg_sid + 1)
                    ~tid:first.Span.core ~ts_ps:first.Span.t0 ~name:"spawn"
                  :: Trace.chrome_flow ~ph:"s" ~id:sp.Span.req_id
                       ~pid:(pseg.Span.seg_sid + 1) ~tid:pseg.Span.core ~ts_ps:sp.Span.born
                       ~name:"spawn"
                  :: !out
            | _ -> ()));
  List.rev !out

(* Hop flows: an arrow from each Forward event to the next Arrive of the
   same request (the wire transit, possibly to another server). *)
let hop_flows events =
  let pending = Hashtbl.create 16 in
  let seq = ref 0 in
  let out = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Forward ->
          incr seq;
          let id = hop_flow_base + !seq in
          Hashtbl.replace pending e.Trace.req_id id;
          out :=
            Trace.chrome_flow ~ph:"s" ~id ~pid:(e.Trace.sid + 1) ~tid:(Int.max 0 e.Trace.core)
              ~ts_ps:e.Trace.at_ps ~name:"hop"
            :: !out
      | Trace.Arrive -> (
          match Hashtbl.find_opt pending e.Trace.req_id with
          | None -> ()
          | Some id ->
              Hashtbl.remove pending e.Trace.req_id;
              out :=
                Trace.chrome_flow ~ph:"f" ~id ~pid:(e.Trace.sid + 1)
                  ~tid:(Int.max 0 e.Trace.core) ~ts_ps:e.Trace.at_ps ~name:"hop"
                :: !out)
      | _ -> ())
    events;
  List.rev !out

let chrome_json ?orch_cores ~events (r : Span.result) =
  Trace.chrome_document
    (Trace.chrome_events ?orch_cores events @ spawn_flows r @ hop_flows events)

(* Blame profiles: per entry function, end-to-end phase means plus the mean
   critical-path blame. *)
let profile (r : Span.result) =
  let stats = Report.by_function r in
  let cp = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let b = Critical_path.of_root r sp in
      let n, acc =
        Option.value ~default:(0, Array.make Span.phase_count 0.0)
          (Hashtbl.find_opt cp sp.Span.fn)
      in
      Array.iteri
        (fun i v -> acc.(i) <- acc.(i) +. float_of_int v)
        b.Critical_path.phases;
      Hashtbl.replace cp sp.Span.fn (n + 1, acc))
    (Report.complete_roots r);
  List.map
    (fun (s : Report.fn_stats) ->
      let cp_mean =
        match Hashtbl.find_opt cp s.Report.fn with
        | Some (n, acc) when n > 0 -> Array.map (fun v -> v /. float_of_int n) acc
        | _ -> Array.make Span.phase_count 0.0
      in
      (s, cp_mean))
    stats

let blame_json (r : Span.result) =
  let rows =
    List.map
      (fun ((s : Report.fn_stats), cp_mean) ->
        let phases which arr =
          ( which,
            Json.Obj
              (Array.to_list
                 (Array.map
                    (fun ph ->
                      (Span.phase_name ph, Json.Float (arr.(Span.phase_index ph) /. 1e3)))
                    Span.all_phases)) )
        in
        Json.Obj
          [
            ("fn", Json.String s.Report.fn);
            ("count", Json.Int s.Report.n);
            ("mean_us", Json.Float (s.Report.mean_ps /. 1e6));
            ("p50_us", Json.Float (Report.us s.Report.p50_ps));
            ("p99_us", Json.Float (Report.us s.Report.p99_ps));
            phases "phase_mean_ns" s.Report.phase_mean_ps;
            phases "critical_path_mean_ns" cp_mean;
          ])
      (profile r)
  in
  Json.to_string
    (Json.Obj
       [
         ("truncated", Json.Bool r.Span.truncated);
         ("functions", Json.List rows);
       ])

let blame_csv (r : Span.result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "fn,count,mean_us,p50_us,p99_us,phase,mean_ns,critical_path_ns\n";
  List.iter
    (fun ((s : Report.fn_stats), cp_mean) ->
      Array.iter
        (fun ph ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.4f,%.4f,%.4f,%s,%.2f,%.2f\n" s.Report.fn
               s.Report.n
               (s.Report.mean_ps /. 1e6)
               (Report.us s.Report.p50_ps)
               (Report.us s.Report.p99_ps)
               (Span.phase_name ph)
               (s.Report.phase_mean_ps.(Span.phase_index ph) /. 1e3)
               (cp_mean.(Span.phase_index ph) /. 1e3)))
        Span.all_phases)
    (profile r);
  Buffer.contents buf
