(* The windowed-SLO core: declarative objectives over tumbling event-time
   windows with the multi-window burn-rate rule, fed one observation per
   decided request. The fleet balancer feeds it directly; the single-node
   Online plane first folds trace spans into observations. Windows are
   keyed by [at_ps / window_ps] and several may be open at once (a span's
   end can land past the watermark); they close in index order as the
   watermark passes their end. *)

module Sketch = Jord_telemetry.Sketch

type transition = {
  tr_at_ps : int;
  tr_objective : string;
  tr_firing : bool;
  tr_window : int;
  tr_burn_fast : float;
  tr_burn_slow : float;
}

type closed_window = {
  cw_index : int;
  cw_total : int;
  cw_bad : int;
  cw_burn_fast : float;
  cw_burn_slow : float;
  cw_firing : bool;
  cw_exemplar_ps : int;
  cw_exemplar : int;
}

type event =
  | Candidate of { objective : string; id : int }
  | Promoted of { objective : string; id : int; window : int }
  | Transition of transition

(* One open window's running counts. Slots are reused from window to
   window, so filing an observation allocates nothing. *)
type slot = {
  mutable total : int;
  mutable bad : int;
  mutable ex_ps : int;  (* max latency with a trace id; -1 without one *)
  mutable ex_id : int;  (* its trace id; -1 without one *)
}

type obj_state = {
  obj : Slo.objective;
  mutable next_close : int;  (* oldest window not yet closed *)
  mutable newest : int;  (* newest window holding an observation *)
  mutable slots : slot array;  (* open window [i] lives at [i mod length] *)
  mutable history : closed_window list;  (* newest first *)
  mutable firing : bool;
  mutable fired : int;
  mutable resolved : int;
  mutable completed : int;
  mutable shed : int;
  mutable bad : int;
  mutable windows_closed : int;
  sketch : Sketch.t;
}

type t = {
  objs : obj_state array;
  mutable hook : (event -> unit) option;
  mutable watermark : int;
  mutable finished : bool;
}

let fresh_slot () = { total = 0; bad = 0; ex_ps = -1; ex_id = -1 }

let create objectives =
  {
    objs =
      Array.of_list
        (List.map
           (fun obj ->
             {
               obj;
               next_close = 0;
               newest = -1;
               slots = Array.init 4 (fun _ -> fresh_slot ());
               history = [];
               firing = false;
               fired = 0;
               resolved = 0;
               completed = 0;
               shed = 0;
               bad = 0;
               windows_closed = 0;
               sketch = Sketch.create ();
             })
           objectives);
    hook = None;
    watermark = 0;
    finished = false;
  }

let objectives t = Array.to_list (Array.map (fun os -> os.obj) t.objs)
let set_hook t f = t.hook <- Some f

let transition_of (o : Slo.objective) w =
  {
    tr_at_ps = (w.cw_index + 1) * o.Slo.window_ps;
    tr_objective = o.Slo.name;
    tr_firing = w.cw_firing;
    tr_window = w.cw_index;
    tr_burn_fast = w.cw_burn_fast;
    tr_burn_slow = w.cw_burn_slow;
  }

(* Budget burn over the newest [k] windows: the closing one (its [total]
   and [bad]) plus the [k - 1] newest closed ones. Empty windows burn 0. *)
let burn os ~total ~bad k =
  let rec go k total bad = function
    | w :: rest when k > 0 -> go (k - 1) (total + w.cw_total) (bad + w.cw_bad) rest
    | _ ->
        if total = 0 then 0.0
        else float_of_int bad /. float_of_int total /. os.obj.Slo.budget
  in
  go (k - 1) total bad os.history

(* Close the oldest open window: record it with its burn rates, promote
   its exemplar (the tracer pins it, so every exemplar a report names is
   in the retained trace set) and run the fire rule. *)
let close_oldest t os =
  let o = os.obj and idx = os.next_close in
  let s = os.slots.(idx mod Array.length os.slots) in
  let burn_fast = burn os ~total:s.total ~bad:s.bad o.Slo.fast_windows in
  let burn_slow = burn os ~total:s.total ~bad:s.bad o.Slo.slow_windows in
  let w =
    {
      cw_index = idx;
      cw_total = s.total;
      cw_bad = s.bad;
      cw_burn_fast = burn_fast;
      cw_burn_slow = burn_slow;
      cw_firing = burn_fast >= o.Slo.burn_threshold && burn_slow >= o.Slo.burn_threshold;
      cw_exemplar_ps = s.ex_ps;
      cw_exemplar = s.ex_id;
    }
  in
  os.history <- w :: os.history;
  os.windows_closed <- os.windows_closed + 1;
  os.next_close <- idx + 1;
  s.total <- 0;
  s.bad <- 0;
  s.ex_ps <- -1;
  s.ex_id <- -1;
  (match t.hook with
  | Some hook when w.cw_exemplar >= 0 ->
      hook (Promoted { objective = o.Slo.name; id = w.cw_exemplar; window = idx })
  | _ -> ());
  if w.cw_firing <> os.firing then begin
    os.firing <- w.cw_firing;
    if w.cw_firing then os.fired <- os.fired + 1 else os.resolved <- os.resolved + 1;
    match t.hook with Some hook -> hook (Transition (transition_of o w)) | None -> ()
  end

let close_through t os idx =
  while os.next_close <= idx do
    close_oldest t os
  done

let advance t ~now_ps =
  if t.finished then invalid_arg "Rollup.advance: already finished";
  if now_ps > t.watermark then begin
    t.watermark <- now_ps;
    for i = 0 to Array.length t.objs - 1 do
      let os = t.objs.(i) in
      close_through t os ((now_ps / os.obj.Slo.window_ps) - 1)
    done
  end

(* Re-home the open windows into a ring wide enough to hold [idx]. *)
let grow os idx =
  let n = Array.length os.slots in
  let m = ref (2 * n) in
  while idx - os.next_close >= !m do
    m := 2 * !m
  done;
  let slots = Array.init !m (fun _ -> fresh_slot ()) in
  for i = os.next_close to os.next_close + n - 1 do
    slots.(i mod !m) <- os.slots.(i mod n)
  done;
  os.slots <- slots

let observe t ~at_ps ~fn ~latency_ps ~shed ~trace_id =
  if t.finished then invalid_arg "Rollup.observe: already finished";
  for i = 0 to Array.length t.objs - 1 do
    let os = t.objs.(i) in
    let o = os.obj in
    if (match o.Slo.fn with None -> true | Some f -> f = fn) then begin
      let idx = at_ps / o.Slo.window_ps in
      if idx < os.next_close then
        invalid_arg
          (Printf.sprintf "Rollup.observe: %s window %d is already closed" o.Slo.name idx);
      if idx - os.next_close >= Array.length os.slots then grow os idx;
      let s = os.slots.(idx mod Array.length os.slots) in
      if idx > os.newest then os.newest <- idx;
      s.total <- s.total + 1;
      if shed then begin
        os.shed <- os.shed + 1;
        os.bad <- os.bad + 1;
        s.bad <- s.bad + 1
      end
      else begin
        os.completed <- os.completed + 1;
        Sketch.add_ex os.sketch latency_ps ~ex:trace_id;
        (* Max-latency exemplar of the window, ties toward the smaller id:
           the candidate at close time depends only on the window's
           observation set, not on drain order. *)
        if trace_id >= 0
           && (latency_ps > s.ex_ps || (latency_ps = s.ex_ps && trace_id < s.ex_id))
        then begin
          s.ex_ps <- latency_ps;
          s.ex_id <- trace_id;
          match t.hook with
          | Some hook -> hook (Candidate { objective = o.Slo.name; id = trace_id })
          | None -> ()
        end;
        let late =
          match o.Slo.kind with
          | Slo.Latency -> latency_ps > o.Slo.threshold_ps
          | Slo.Availability -> false
        in
        if late then begin
          os.bad <- os.bad + 1;
          s.bad <- s.bad + 1
        end
      end
    end
  done

let finish t ~now_ps =
  if not t.finished then begin
    advance t ~now_ps;
    t.finished <- true;
    Array.iter
      (fun os ->
        let started_before =
          if t.watermark <= 0 then -1 else (t.watermark - 1) / os.obj.Slo.window_ps
        in
        close_through t os (Int.max started_before os.newest))
      t.objs
  end

type row = {
  r_objective : Slo.objective;
  r_requests : int;
  r_bad : int;
  r_shed : int;
  r_sketch : Sketch.t;
  r_quantile_ps : int;
  r_budget_used : float;  (* percent of the error budget consumed *)
  r_windows_closed : int;
  r_fired : int;
  r_resolved : int;
  r_firing : bool;
  r_verdict : string;
  r_exemplar_ps : int;  (* -1 when the run carried no trace ids *)
  r_exemplar : int;  (* max-latency retained trace id, or -1 *)
}

let rows t =
  Array.to_list
    (Array.map
       (fun os ->
         let o = os.obj in
         let total = os.completed + os.shed in
         let q = Sketch.quantile os.sketch o.Slo.percentile in
         let budget_used =
           if total = 0 then 0.0
           else float_of_int os.bad /. (o.Slo.budget *. float_of_int total) *. 100.0
         in
         let verdict =
           if os.firing then "FIRING"
           else if total = 0 then "no-data"
           else
             match o.Slo.kind with
             | Slo.Availability -> if budget_used <= 100.0 then "met" else "VIOLATED"
             | Slo.Latency ->
                 if q <= o.Slo.threshold_ps && budget_used <= 100.0 then "met"
                 else "VIOLATED"
         in
         let ex_ps, ex_id =
           match Sketch.exemplar os.sketch with Some (v, id) -> (v, id) | None -> (-1, -1)
         in
         {
           r_objective = o;
           r_requests = total;
           r_bad = os.bad;
           r_shed = os.shed;
           r_sketch = os.sketch;
           r_quantile_ps = q;
           r_budget_used = budget_used;
           r_windows_closed = os.windows_closed;
           r_fired = os.fired;
           r_resolved = os.resolved;
           r_firing = os.firing;
           r_verdict = verdict;
           r_exemplar_ps = ex_ps;
           r_exemplar = ex_id;
         })
       t.objs)

let windows t =
  Array.to_list (Array.map (fun os -> (os.obj.Slo.name, List.rev os.history)) t.objs)

(* The transitions are the history's firing-state changes. *)
let transitions t =
  Array.to_list t.objs
  |> List.concat_map (fun os ->
         let firing = ref false in
         List.filter_map
           (fun w ->
             if w.cw_firing = !firing then None
             else begin
               firing := w.cw_firing;
               Some (transition_of os.obj w)
             end)
           (List.rev os.history))
  |> List.sort (fun a b ->
         compare (a.tr_at_ps, a.tr_objective) (b.tr_at_ps, b.tr_objective))

(* --- rendering --- *)

let verdict_header =
  [
    "objective"; "fn"; "target"; "requests"; "bad"; "shed"; "measured_us";
    "budget_used"; "windows"; "fire/res"; "state";
  ]

let verdict_cells r =
  let o = r.r_objective in
  [
    o.Slo.name;
    (match o.Slo.fn with None -> "*" | Some fn -> fn);
    (match o.Slo.kind with
    | Slo.Latency -> Printf.sprintf "p%g<%.1fus" o.Slo.percentile (Report.us o.Slo.threshold_ps)
    | Slo.Availability -> Printf.sprintf "avail>=%g%%" (100.0 *. (1.0 -. o.Slo.budget)));
    string_of_int r.r_requests;
    string_of_int r.r_bad;
    string_of_int r.r_shed;
    (match o.Slo.kind with
    | Slo.Latency ->
        if r.r_requests - r.r_shed = 0 then "-"
        else Printf.sprintf "%.3f" (Report.us r.r_quantile_ps)
    | Slo.Availability ->
        if r.r_requests = 0 then "-"
        else
          Printf.sprintf "%.3f%%"
            (100.0 *. float_of_int (r.r_requests - r.r_bad) /. float_of_int r.r_requests));
    Printf.sprintf "%.1f%%" r.r_budget_used;
    string_of_int r.r_windows_closed;
    Printf.sprintf "%d/%d" r.r_fired r.r_resolved;
    r.r_verdict;
  ]

let transition_line tr =
  Printf.sprintf "%12.3fus %-7s %-16s window=%-4d burn fast=%.2f slow=%.2f"
    (Report.us tr.tr_at_ps)
    (if tr.tr_firing then "FIRE" else "resolve")
    tr.tr_objective tr.tr_window tr.tr_burn_fast tr.tr_burn_slow

let alert_log t =
  "alerts:\n"
  ^
  match transitions t with
  | [] -> "  none\n"
  | trs -> String.concat "" (List.map (fun tr -> "  " ^ transition_line tr ^ "\n") trs)

let report_text t =
  let rs = rows t in
  Jord_util.Render.table
    ~title:(Printf.sprintf "fleet SLO rollup (%d objectives)" (List.length rs))
    ~header:(verdict_header @ [ "exemplar" ])
    ~rows:
      (List.map
         (fun r ->
           verdict_cells r
           @ [ (if r.r_exemplar < 0 then "-" else Printf.sprintf "trace=%d" r.r_exemplar) ])
         rs)
    ()
  ^ alert_log t

let report_json t =
  let open Jord_util.Json in
  let rs = rows t in
  to_string
    (Obj
       [
         ("jord_fleet_slo_rollup", Int 1);
         ( "objectives",
           List
             (List.map
                (fun r ->
                  Obj
                    [
                      ("name", String r.r_objective.Slo.name);
                      ("requests", Int r.r_requests);
                      ("bad", Int r.r_bad);
                      ("shed", Int r.r_shed);
                      ("quantile_ps", Int r.r_quantile_ps);
                      ("budget_used_pct", Float r.r_budget_used);
                      ("windows_closed", Int r.r_windows_closed);
                      ("fired", Int r.r_fired);
                      ("resolved", Int r.r_resolved);
                      ("firing", Bool r.r_firing);
                      ("verdict", String r.r_verdict);
                      ("exemplar_trace_id", Int r.r_exemplar);
                      ("exemplar_ps", Int r.r_exemplar_ps);
                    ])
                rs) );
       ])

(* --- CSV export (the Report.blame_csv conventions: one flat unquoted table,
   objective-level columns repeated on every per-window row) --- *)

let csv_header =
  "objective,fn,kind,requests,bad,shed,measured_us,budget_used_pct,windows,\
   fired,resolved,verdict,exemplar,window,w_total,w_bad,w_exemplar"

let report_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter2
    (fun r (_, wins) ->
      let o = r.r_objective in
      let prefix =
        Printf.sprintf "%s,%s,%s,%d,%d,%d,%.4f,%.4f,%d,%d,%d,%s,%d" o.Slo.name
          (match o.Slo.fn with None -> "*" | Some fn -> fn)
          (match o.Slo.kind with Slo.Latency -> "latency" | Slo.Availability -> "availability")
          r.r_requests r.r_bad r.r_shed (Report.us r.r_quantile_ps) r.r_budget_used
          r.r_windows_closed r.r_fired r.r_resolved r.r_verdict r.r_exemplar
      in
      match wins with
      | [] -> Buffer.add_string buf (prefix ^ ",-1,0,0,-1\n")
      | wins ->
          List.iter
            (fun cw ->
              Buffer.add_string buf
                (Printf.sprintf "%s,%d,%d,%d,%d\n" prefix cw.cw_index cw.cw_total
                   cw.cw_bad cw.cw_exemplar))
            wins)
    (rows t) (windows t);
  Buffer.contents buf

(* Parse a [report_csv] document back into header-keyed rows — the
   round-trip check and any downstream tooling share this. No quoting: the
   writer never emits fields containing commas. *)
let parse_csv body =
  match String.split_on_char '\n' (String.trim body) with
  | [] | [ "" ] -> Error "empty CSV"
  | header :: lines ->
      let cols = String.split_on_char ',' header in
      let ncols = List.length cols in
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | "" :: rest -> go (n + 1) acc rest
        | line :: rest ->
            let fields = String.split_on_char ',' line in
            if List.length fields <> ncols then
              Error
                (Printf.sprintf "line %d: expected %d fields, got %d" n ncols
                   (List.length fields))
            else go (n + 1) (List.combine cols fields :: acc) rest
      in
      go 2 [] lines
