module Trace = Jord_faas.Trace

(* The offline Chrome/Perfetto export of a loaded server trace: Trace's one
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
