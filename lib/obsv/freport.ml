module Json = Jord_util.Json

(* The fleet-only parts of `jordctl trace` over a fleet trace file: the
   retention headline, the per-member table, the LB-imbalance line and the
   Perfetto export. Fleet spans are flat (one record per request, six
   exclusive phases), so their rows feed Report directly: the e2e split
   and the phase blame are the same rows. All statistics are over the
   retained (tail-sampled) set; the headline says so. *)

let headline (l : Tracefile.fleet) =
  let census = Hashtbl.create 8 in
  List.iter
    (fun (reason, _) ->
      Hashtbl.replace census reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt census reason)))
    l.Tracefile.spans;
  let parts =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) census []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  in
  Printf.sprintf "fleet trace: %d spans retained of %d requests (keep: %s)\n"
    (List.length l.Tracefile.spans)
    l.Tracefile.offered_total
    (if parts = [] then "-" else String.concat " " parts)

type member_stats = {
  member : int;
  routed : int;  (* spans routed to this member (incl. member sheds) *)
  m_completed : int;
  m_shed : int;
  hits : int;
  colds : int;
  m_mean_ps : float;
  m_p99_ps : int;
}

let by_member spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      if sp.Fspan.member >= 0 then
        let l = Option.value ~default:[] (Hashtbl.find_opt tbl sp.Fspan.member) in
        Hashtbl.replace tbl sp.Fspan.member (sp :: l))
    spans;
  Hashtbl.fold
    (fun member sps acc ->
      let comp = List.filter (fun sp -> sp.Fspan.outcome = Fspan.Completed) sps in
      let lat = Array.of_list (List.map Fspan.e2e_ps comp) in
      Array.sort compare lat;
      let count f = List.length (List.filter f sps) in
      {
        member;
        routed = List.length sps;
        m_completed = List.length comp;
        m_shed = count (fun sp -> sp.Fspan.outcome = Fspan.Shed_member);
        hits = count (fun sp -> sp.Fspan.lb_hit);
        colds = count (fun sp -> sp.Fspan.cold);
        m_mean_ps =
          Array.fold_left (fun s v -> s +. float_of_int v) 0.0 lat
          /. float_of_int (Int.max 1 (Array.length lat));
        m_p99_ps = Report.percentile 99.0 lat;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (-a.routed, a.member) (-b.routed, b.member))

(* Balance of the retained routed load: max/mean requests-per-member, the
   warm-route hit rate and the cold-start rate. *)
let imbalance_line members =
  match members with
  | [] -> "lb-imbalance: no routed spans retained\n"
  | _ ->
      let n = List.length members in
      let total = List.fold_left (fun a m -> a + m.routed) 0 members in
      let mean = float_of_int total /. float_of_int n in
      let worst = List.hd members in
      let least =
        List.fold_left
          (fun best m ->
            if (m.routed, m.member) < (best.routed, best.member) then m else best)
          worst members
      in
      let hits = List.fold_left (fun a m -> a + m.hits) 0 members in
      let colds = List.fold_left (fun a m -> a + m.colds) 0 members in
      let pct a = 100.0 *. float_of_int a /. float_of_int (Int.max 1 total) in
      Printf.sprintf
        "lb-imbalance: %d members, %.1f requests/member mean, max=%d (member %d) \
         min=%d (member %d), max/mean=%.2f; warm-route hits=%.0f%% cold=%.0f%%\n"
        n mean worst.routed worst.member least.routed least.member
        (float_of_int worst.routed /. Float.max 1.0 mean)
        (pct hits) (pct colds)

let member_cap = 16

(* The per-member view (top [member_cap] by routed load, deterministic
   order) and the LB-imbalance summary. *)
let member_lines members =
  let shown = List.filteri (fun i _ -> i < member_cap) members in
  Printf.sprintf "per-member (top %d of %d by retained requests):\n" (List.length shown)
    (List.length members)
  (* The empty first column indents the table by one cell separator. *)
  ^ Jord_util.Render.table
      ~header:[ ""; "member"; "routed"; "done"; "shed"; "hit"; "cold"; "mean_us"; "p99_us" ]
      ~rows:
        (List.map
           (fun m ->
             ""
             :: List.map string_of_int
                  [ m.member; m.routed; m.m_completed; m.m_shed; m.hits; m.colds ]
             @ [ Printf.sprintf "%.3f" (m.m_mean_ps /. 1e6);
                 Printf.sprintf "%.3f" (Report.us m.m_p99_ps) ])
           shown)
      ()
  ^ imbalance_line members

let report (l : Tracefile.fleet) =
  let spans = List.map snd l.Tracefile.spans in
  let rows =
    List.filter_map
      (fun sp -> if sp.Fspan.outcome = Fspan.Completed then Some (Fspan.row sp) else None)
      spans
  in
  let title =
    "per-phase attribution, completed requests (mean us per request / share of e2e):"
  in
  {
    Report.phase_names = Array.map Fspan.phase_name Fspan.all_phases;
    head = headline l;
    census = "";
    title;
    slowest_of = "retained requests";
    empty = "no completed spans retained";
    rows;
    blame_title = title;
    blame_rows = Lazy.from_val rows;
    scope = "fleet";
    blame_extra = lazy (member_lines (by_member spans));
    checked = Printf.sprintf "%d retained spans" (List.length spans);
    violations = Report.violations (List.map Fspan.row spans);
    json_meta =
      [ ("offered", Json.Int l.Tracefile.offered_total);
        ("retained", Json.Int (List.length spans)) ];
  }

(* --- Perfetto export: one process track for the balancer, one per member,
   with request/response flow arrows between them --- *)

let balancer_pid = 1
let member_pid m = m + 2
let resp_flow_base = 1 lsl 30

let flow ~ph ~id ~pid ~ts ~name =
  Jord_faas.Trace.chrome_flow ~ph ~id ~pid ~tid:0 ~ts_ps:ts ~name

let span_args keep sp =
  ( "args",
    Json.Obj
      ([
         ("req", Json.Int sp.Fspan.req_id);
         ("user", Json.Int sp.Fspan.user);
         ("fn", Json.String sp.Fspan.fn);
         ("member", Json.Int sp.Fspan.member);
         ("outcome", Json.String (Fspan.outcome_name sp.Fspan.outcome));
         ("keep", Json.String keep);
       ]
      @ Array.to_list
          (Array.map
             (fun ph ->
               (Fspan.phase_name ph ^ "_us", Json.Float (Report.us (Fspan.phase_ps sp ph))))
             Fspan.all_phases)) )

let chrome_json (l : Tracefile.fleet) =
  let members = Hashtbl.create 32 in
  List.iter
    (fun (_, sp) ->
      if sp.Fspan.member >= 0 then Hashtbl.replace members sp.Fspan.member ())
    l.Tracefile.spans;
  let procs =
    Jord_faas.Trace.chrome_meta ~pid:balancer_pid ~name:"fleet balancer" "process_name"
    :: (Hashtbl.fold
          (fun m () acc ->
            Jord_faas.Trace.chrome_meta ~pid:(member_pid m)
              ~name:(Printf.sprintf "fleet member %d" m)
              "process_name"
            :: acc)
          members []
       |> List.sort compare)
  in
  let out = ref [] in
  let push j = out := j :: !out in
  List.iter
    (fun (keep, sp) ->
      let args = span_args keep sp in
      (* The balancer-side slice covers the whole request. *)
      push
        (Json.Obj
           [
             ("ph", Json.String "X");
             ("name", Json.String sp.Fspan.fn);
             ("pid", Json.Int balancer_pid);
             ("tid", Json.Int 0);
             ("ts", Json.Float (Report.us sp.Fspan.submit_ps));
             ("dur", Json.Float (Report.us (Fspan.e2e_ps sp)));
             args;
           ]);
      if sp.Fspan.member >= 0 then begin
        let depart =
          sp.Fspan.submit_ps + Fspan.phase_ps sp Fspan.Balancer_queue
        in
        let arrive = depart + Fspan.phase_ps sp Fspan.Wire in
        let busy =
          Fspan.phase_ps sp Fspan.Member_queue
          + Fspan.phase_ps sp Fspan.Cold_start
          + Fspan.phase_ps sp Fspan.Service
        in
        push
          (Json.Obj
             [
               ("ph", Json.String "X");
               ( "name",
                 Json.String
                   (sp.Fspan.fn
                   ^ (if sp.Fspan.cold then " (cold)" else "")
                   ^
                   if sp.Fspan.outcome = Fspan.Shed_member then " (shed)" else "")
               );
               ("pid", Json.Int (member_pid sp.Fspan.member));
               ("tid", Json.Int 0);
               ("ts", Json.Float (Report.us arrive));
               ("dur", Json.Float (Report.us busy));
               args;
             ]);
        (* Request and response wire hops as flow arrows. *)
        push
          (flow ~ph:"s" ~id:sp.Fspan.req_id ~pid:balancer_pid ~ts:depart
             ~name:"req");
        push
          (flow ~ph:"f" ~id:sp.Fspan.req_id ~pid:(member_pid sp.Fspan.member)
             ~ts:arrive ~name:"req");
        push
          (flow
             ~ph:"s"
             ~id:(resp_flow_base + sp.Fspan.req_id)
             ~pid:(member_pid sp.Fspan.member)
             ~ts:(arrive + busy) ~name:"resp");
        push
          (flow
             ~ph:"f"
             ~id:(resp_flow_base + sp.Fspan.req_id)
             ~pid:balancer_pid ~ts:sp.Fspan.end_ps ~name:"resp")
      end
      else
        (* Shed at the balancer: an instant marker on its track. *)
        push
          (Json.Obj
             [
               ("ph", Json.String "i");
               ("s", Json.String "t");
               ("name", Json.String (sp.Fspan.fn ^ " (shed-lb)"));
               ("pid", Json.Int balancer_pid);
               ("tid", Json.Int 0);
               ("ts", Json.Float (Report.us sp.Fspan.submit_ps));
               args;
             ]))
    l.Tracefile.spans;
  Jord_faas.Trace.chrome_document (procs @ List.rev !out)
