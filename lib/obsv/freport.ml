module Json = Jord_util.Json

(* Reports over a loaded fleet trace — what [jordctl trace] prints when the
   file turns out to be a fleet one. Fleet spans are flat (one record per
   request, six exclusive phases), so "critical path" degenerates to the
   span itself and the interesting question becomes *blame*: which phase
   owns the tail, per entry function and per member, plus how evenly the
   balancer spread the load. All statistics are over the retained
   (tail-sampled) set; the headline line says so. *)

let us ps = float_of_int ps /. 1e6

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(Int.max 0 (Int.min (n - 1) rank))

let spans_of (l : Ftrace.loaded) = List.map snd l.Ftrace.spans

let completed l =
  List.filter (fun sp -> sp.Fspan.outcome = Fspan.Completed) (spans_of l)

let conservation_violations l =
  List.filter_map
    (fun sp ->
      if Fspan.conservation_ok sp then None
      else
        Some
          (Printf.sprintf "request %d: phases sum to %d ps, end-to-end is %d ps"
             sp.Fspan.req_id (Fspan.sum_phases sp) (Fspan.e2e_ps sp)))
    (spans_of l)

let conservation_ok l = conservation_violations l = []

let conservation_line l =
  match conservation_violations l with
  | [] ->
      Printf.sprintf
        "conservation: ok (%d retained spans; phases sum exactly to end-to-end)"
        (List.length l.Ftrace.spans)
  | errs ->
      Printf.sprintf "conservation: VIOLATED (%d spans)\n  %s" (List.length errs)
        (String.concat "\n  " errs)

let headline (l : Ftrace.loaded) =
  let census = Hashtbl.create 8 in
  List.iter
    (fun (reason, _) ->
      Hashtbl.replace census reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt census reason)))
    l.Ftrace.spans;
  let parts =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) census []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  in
  Printf.sprintf "fleet trace: %d spans retained of %d requests (keep: %s)\n"
    (List.length l.Ftrace.spans)
    l.Ftrace.offered_total
    (if parts = [] then "-" else String.concat " " parts)

let phase_table buf ~label rows =
  (* rows : (name, total_ps float array) — per-phase microseconds and
     shares, one line per row (the single-node Report layout). *)
  Buffer.add_string buf (Printf.sprintf "%-16s %10s" label "e2e_us");
  Array.iter
    (fun ph ->
      Buffer.add_string buf (Printf.sprintf " %14s" (Fspan.phase_name ph)))
    Fspan.all_phases;
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, phases) ->
      let total = Array.fold_left ( +. ) 0.0 phases in
      Buffer.add_string buf (Printf.sprintf "%-16s %10.3f" name (total /. 1e6));
      Array.iter
        (fun ph ->
          let v = phases.(Fspan.phase_index ph) in
          let share = if total > 0.0 then 100.0 *. v /. total else 0.0 in
          Buffer.add_string buf (Printf.sprintf " %9.3f/%3.0f%%" (v /. 1e6) share))
        Fspan.all_phases;
      Buffer.add_char buf '\n')
    rows

type fn_stats = {
  fn : string;
  n : int;
  mean_ps : float;
  p50_ps : int;
  p99_ps : int;
  phase_mean_ps : float array;  (* by Fspan.phase_index *)
  tail_phase_ps : int array;  (* phase totals over the >= p99 slice *)
  tail_n : int;
}

let group_by_fn sps =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl sp.Fspan.fn) in
      Hashtbl.replace tbl sp.Fspan.fn (sp :: l))
    sps;
  Hashtbl.fold (fun fn sps acc -> (fn, sps) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let by_function l =
  List.map
    (fun (fn, sps) ->
      let n = List.length sps in
      let lat = Array.of_list (List.map Fspan.e2e_ps sps) in
      Array.sort compare lat;
      let p99 = percentile 99.0 lat in
      let phase_mean_ps =
        Array.init Fspan.phase_count (fun i ->
            List.fold_left (fun s sp -> s +. float_of_int sp.Fspan.phases.(i)) 0.0 sps
            /. float_of_int n)
      in
      let tail = List.filter (fun sp -> Fspan.e2e_ps sp >= p99) sps in
      let tail_phase_ps = Array.make Fspan.phase_count 0 in
      List.iter
        (fun sp ->
          Array.iteri (fun i v -> tail_phase_ps.(i) <- tail_phase_ps.(i) + v)
            sp.Fspan.phases)
        tail;
      {
        fn;
        n;
        mean_ps =
          Array.fold_left (fun s v -> s +. float_of_int v) 0.0 lat /. float_of_int n;
        p50_ps = percentile 50.0 lat;
        p99_ps = p99;
        phase_mean_ps;
        tail_phase_ps;
        tail_n = List.length tail;
      })
    (group_by_fn (completed l))

(* "p99 is X% cold-start / Y% member queue / ..." over a tail slice's phase
   totals, heaviest phase first, zero phases omitted. *)
let tail_split tail_phase_ps =
  let total = Array.fold_left ( + ) 0 tail_phase_ps in
  if total = 0 then ("empty", [])
  else
    let parts =
      Array.to_list Fspan.all_phases
      |> List.map (fun ph ->
             (ph, tail_phase_ps.(Fspan.phase_index ph)))
      |> List.filter (fun (_, v) -> v > 0)
      |> List.sort (fun (pa, a) (pb, b) ->
             compare (-a, Fspan.phase_index pa) (-b, Fspan.phase_index pb))
      |> List.map (fun (ph, v) ->
             ( Fspan.phase_name ph,
               100.0 *. float_of_int v /. float_of_int total ))
    in
    (match parts with (name, _) :: _ -> name | [] -> "empty"), parts

let tail_split_string parts =
  String.concat " / "
    (List.map (fun (name, pct) -> Printf.sprintf "%.0f%% %s" pct name) parts)

let breakdown l =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (headline l);
  let stats = by_function l in
  if stats = [] then Buffer.add_string buf "no completed spans retained\n"
  else begin
    Buffer.add_string buf
      "per-phase attribution, completed requests (mean us per request / share of \
       e2e):\n";
    phase_table buf ~label:"fn"
      (List.map
         (fun s -> (Printf.sprintf "%s(%d)" s.fn s.n, s.phase_mean_ps))
         stats)
  end;
  Buffer.add_string buf (conservation_line l);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let slowest ?(n = 10) l =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (headline l);
  let sps =
    List.sort
      (fun a b ->
        compare (Fspan.e2e_ps b, a.Fspan.req_id) (Fspan.e2e_ps a, b.Fspan.req_id))
      (completed l)
  in
  let picked = List.filteri (fun i _ -> i < n) sps in
  if picked = [] then Buffer.add_string buf "no completed spans retained\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "slowest %d retained requests:\n" (List.length picked));
    phase_table buf ~label:"req"
      (List.map
         (fun sp ->
           ( Printf.sprintf "#%d %s@m%d%s" sp.Fspan.req_id sp.Fspan.fn
               sp.Fspan.member
               (if sp.Fspan.cold then "*" else ""),
             Array.map float_of_int sp.Fspan.phases ))
         picked)
  end;
  Buffer.contents buf

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

let by_member l =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      if sp.Fspan.member >= 0 then
        let l = Option.value ~default:[] (Hashtbl.find_opt tbl sp.Fspan.member) in
        Hashtbl.replace tbl sp.Fspan.member (sp :: l))
    (spans_of l);
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
          (if comp = [] then 0.0
           else
             Array.fold_left (fun s v -> s +. float_of_int v) 0.0 lat
             /. float_of_int (Array.length lat));
        m_p99_ps = percentile 99.0 lat;
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

(* The fleet blame report: per-fn attribution with tail verdicts, the
   per-member view (top [member_cap] by routed load, deterministic order),
   the LB-imbalance summary, and the headline p99 verdict that names the
   guilty phase. *)
let blame l =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (headline l);
  let comp = completed l in
  if comp = [] then begin
    Buffer.add_string buf "no completed spans retained\n";
    Buffer.add_string buf (conservation_line l);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end
  else begin
    let stats = by_function l in
    Buffer.add_string buf
      "per-phase attribution, completed requests (mean us per request / share of \
       e2e):\n";
    phase_table buf ~label:"fn"
      (List.map
         (fun s -> (Printf.sprintf "%s(%d)" s.fn s.n, s.phase_mean_ps))
         stats);
    Buffer.add_string buf "per-fn tail (requests at or above the fn's p99):\n";
    List.iter
      (fun s ->
        let _, parts = tail_split s.tail_phase_ps in
        Buffer.add_string buf
          (Printf.sprintf "  %-16s p99=%.3fus n=%d: p99 is %s\n" s.fn
             (us s.p99_ps) s.tail_n (tail_split_string parts)))
      stats;
    (* Fleet-wide tail verdict. *)
    let lat = Array.of_list (List.map Fspan.e2e_ps comp) in
    Array.sort compare lat;
    let p99 = percentile 99.0 lat in
    let tail = List.filter (fun sp -> Fspan.e2e_ps sp >= p99) comp in
    let acc = Array.make Fspan.phase_count 0 in
    List.iter
      (fun sp -> Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) sp.Fspan.phases)
      tail;
    let worst, parts = tail_split acc in
    Buffer.add_string buf
      (Printf.sprintf "tail: for p99 requests (>= %.3f us, n=%d), p99 is %s\n"
         (us p99) (List.length tail) (tail_split_string parts));
    Buffer.add_string buf
      (Printf.sprintf "verdict: %s dominates the fleet p99 tail\n" worst);
    (* Per-member view, capped deterministically. *)
    let members = by_member l in
    let shown = List.filteri (fun i _ -> i < member_cap) members in
    Buffer.add_string buf
      (Printf.sprintf "per-member (top %d of %d by retained requests):\n"
         (List.length shown) (List.length members));
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %8s %8s %6s %6s %6s %10s %10s\n" "member" "routed"
         "done" "shed" "hit" "cold" "mean_us" "p99_us");
    List.iter
      (fun m ->
        Buffer.add_string buf
          (Printf.sprintf "  %-8d %8d %8d %6d %6d %6d %10.3f %10.3f\n" m.member
             m.routed m.m_completed m.m_shed m.hits m.colds (m.m_mean_ps /. 1e6)
             (us m.m_p99_ps)))
      shown;
    Buffer.add_string buf (imbalance_line members);
    Buffer.add_string buf (conservation_line l);
    Buffer.add_char buf '\n';
    Buffer.contents buf
  end

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
               (Fspan.phase_name ph ^ "_us", Json.Float (us (Fspan.phase_ps sp ph))))
             Fspan.all_phases)) )

let chrome_json (l : Ftrace.loaded) =
  let members = Hashtbl.create 32 in
  List.iter
    (fun (_, sp) ->
      if sp.Fspan.member >= 0 then Hashtbl.replace members sp.Fspan.member ())
    l.Ftrace.spans;
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
             ("ts", Json.Float (us sp.Fspan.submit_ps));
             ("dur", Json.Float (us (Fspan.e2e_ps sp)));
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
               ("ts", Json.Float (us arrive));
               ("dur", Json.Float (us busy));
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
               ("ts", Json.Float (us sp.Fspan.submit_ps));
               args;
             ]))
    l.Ftrace.spans;
  Jord_faas.Trace.chrome_document (procs @ List.rev !out)

(* --- blame profiles, matching the single-node Export conventions --- *)

let blame_json l =
  let rows =
    List.map
      (fun s ->
        let _, parts = tail_split s.tail_phase_ps in
        Json.Obj
          [
            ("fn", Json.String s.fn);
            ("count", Json.Int s.n);
            ("mean_us", Json.Float (s.mean_ps /. 1e6));
            ("p50_us", Json.Float (us s.p50_ps));
            ("p99_us", Json.Float (us s.p99_ps));
            ( "phase_mean_ns",
              Json.Obj
                (Array.to_list
                   (Array.map
                      (fun ph ->
                        ( Fspan.phase_name ph,
                          Json.Float (s.phase_mean_ps.(Fspan.phase_index ph) /. 1e3)
                        ))
                      Fspan.all_phases)) );
            ( "tail_share_pct",
              Json.Obj (List.map (fun (name, pct) -> (name, Json.Float pct)) parts)
            );
          ])
      (by_function l)
  in
  Json.to_string
    (Json.Obj
       [
         ("offered", Json.Int l.Ftrace.offered_total);
         ("retained", Json.Int (List.length l.Ftrace.spans));
         ("functions", Json.List rows);
       ])

let blame_csv l =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "fn,count,mean_us,p50_us,p99_us,phase,mean_ns,tail_share_pct\n";
  List.iter
    (fun s ->
      let tail_total = Array.fold_left ( + ) 0 s.tail_phase_ps in
      Array.iter
        (fun ph ->
          let i = Fspan.phase_index ph in
          let tail_pct =
            if tail_total = 0 then 0.0
            else 100.0 *. float_of_int s.tail_phase_ps.(i) /. float_of_int tail_total
          in
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.4f,%.4f,%.4f,%s,%.2f,%.2f\n" s.fn s.n
               (s.mean_ps /. 1e6) (us s.p50_ps) (us s.p99_ps) (Fspan.phase_name ph)
               (s.phase_mean_ps.(i) /. 1e3)
               tail_pct))
        Fspan.all_phases)
    (by_function l);
  Buffer.contents buf
