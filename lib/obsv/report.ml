module Json = Jord_util.Json

(* The one phase-attribution core behind `jordctl trace`, for server and
   fleet traces alike. It sees flat rows (one request, its end-to-end
   latency and that latency split into exclusive integer-ps phases) plus
   the strings that name the trace's kind; it never looks at a span, and
   nothing here branches on which kind of trace the rows came from. *)

let us ps = float_of_int ps /. 1e6

let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(Int.max 0 (Int.min (n - 1) rank))

type row = { id : int; fn : string; label : string; e2e_ps : int; phases : int array }

type t = {
  phase_names : string array;
  head : string;
  census : string;
  title : string;
  slowest_of : string;
  empty : string;
  rows : row list;
  blame_title : string;
  blame_rows : row list Lazy.t;
  scope : string;
  blame_extra : string Lazy.t;
  checked : string;
  violations : string list;
  json_meta : (string * Json.t) list;
}

(* The conservation identity, checked the same way for every kind: phases
   are non-negative and sum exactly to the end-to-end latency. *)
let violations rows =
  List.filter_map
    (fun r ->
      let sum = Array.fold_left ( + ) 0 r.phases in
      if sum <> r.e2e_ps then
        Some
          (Printf.sprintf
             "req %d (%s): phases sum to %d ps but end-to-end is %d ps (delta %d)" r.id
             r.fn sum r.e2e_ps (sum - r.e2e_ps))
      else if Array.exists (fun v -> v < 0) r.phases then
        Some (Printf.sprintf "req %d (%s): a phase is negative" r.id r.fn)
      else None)
    rows

let conservation_ok t = t.violations = []

let conservation_line t =
  match t.violations with
  | [] ->
      Printf.sprintf "conservation: ok (%s; phases sum exactly to end-to-end)\n" t.checked
  | errs ->
      Printf.sprintf "conservation: VIOLATED (%d spans)\n  %s\n" (List.length errs)
        (String.concat "\n  " errs)

type fn_stats = {
  fn : string;
  n : int;
  mean_ps : float;
  p50_ps : int;
  p99_ps : int;
  phase_mean_ps : float array;
  tail_phase_ps : int array;
  tail_n : int;
}

(* Phase totals of a non-empty row list. *)
let sum_phases rows =
  let acc = Array.make (Array.length (List.hd rows).phases) 0 in
  List.iter (fun r -> Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) r.phases) rows;
  acc

let sorted_e2e rows =
  let lat = Array.of_list (List.map (fun r -> r.e2e_ps) rows) in
  Array.sort compare lat;
  lat

let by_function rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : row) ->
      Hashtbl.replace tbl r.fn (r :: Option.value ~default:[] (Hashtbl.find_opt tbl r.fn)))
    rows;
  Hashtbl.fold
    (fun fn rows acc ->
      let n = List.length rows in
      let lat = sorted_e2e rows in
      let p99 = percentile 99.0 lat in
      let tail = List.filter (fun r -> r.e2e_ps >= p99) rows in
      {
        fn;
        n;
        mean_ps = Array.fold_left (fun s v -> s +. float_of_int v) 0.0 lat /. float_of_int n;
        p50_ps = percentile 50.0 lat;
        p99_ps = p99;
        phase_mean_ps =
          Array.map (fun v -> float_of_int v /. float_of_int n) (sum_phases rows);
        tail_phase_ps = sum_phases tail;
        tail_n = List.length tail;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.fn b.fn)

(* "p99 is X% cold_start / Y% service / ..." over a tail slice's phase
   totals: heaviest phase first (ties in phase order), zero phases
   omitted, and the heaviest phase's name as the verdict. *)
let tail_split t tail_phase_ps =
  let total = Array.fold_left ( + ) 0 tail_phase_ps in
  let parts =
    if total = 0 then []
    else
      Array.to_list (Array.mapi (fun i v -> (i, v)) tail_phase_ps)
      |> List.filter (fun (_, v) -> v > 0)
      |> List.sort (fun (i, a) (j, b) -> compare (-a, i) (-b, j))
      |> List.map (fun (i, v) -> (t.phase_names.(i), 100.0 *. float_of_int v /. float_of_int total))
  in
  ((match parts with (name, _) :: _ -> name | [] -> "empty"), parts)

let split_string parts =
  String.concat " / " (List.map (fun (name, pct) -> Printf.sprintf "%.0f%% %s" pct name) parts)

(* One line per named row: e2e and per-phase microseconds with shares. *)
let phase_table t ~title ~label named =
  Jord_util.Render.table ~title
    ~header:(label :: "e2e_us" :: Array.to_list t.phase_names)
    ~rows:
      (List.map
         (fun (name, phases) ->
           let total = Array.fold_left ( +. ) 0.0 phases in
           name
           :: Printf.sprintf "%.3f" (total /. 1e6)
           :: Array.to_list
                (Array.map
                   (fun v ->
                     Printf.sprintf "%.3f/%3.0f%%" (v /. 1e6)
                       (if total > 0.0 then 100.0 *. v /. total else 0.0))
                   phases))
         named)
    ()

let fn_table t ~title stats =
  phase_table t ~title ~label:"fn"
    (List.map (fun s -> (Printf.sprintf "%s(%d)" s.fn s.n, s.phase_mean_ps)) stats)

let breakdown t =
  let body =
    match by_function t.rows with
    | [] -> t.empty ^ "\n"
    | stats -> fn_table t ~title:t.title stats
  in
  t.head ^ t.census ^ body ^ conservation_line t

let slowest ?(n = 10) t =
  let picked =
    List.stable_sort (fun a b -> compare b.e2e_ps a.e2e_ps) t.rows
    |> List.filteri (fun i _ -> i < n)
  in
  if picked = [] then t.head ^ t.empty ^ "\n"
  else
    t.head
    ^ phase_table t
        ~title:(Printf.sprintf "slowest %d %s:" (List.length picked) t.slowest_of)
        ~label:"req"
        (List.map (fun r -> (r.label, Array.map float_of_int r.phases)) picked)

let blame t =
  let rows = Lazy.force t.blame_rows in
  let body =
    match by_function rows with
    | [] -> t.empty ^ "\n"
    | stats ->
        let p99 = percentile 99.0 (sorted_e2e rows) in
        let tail = List.filter (fun r -> r.e2e_ps >= p99) rows in
        let worst, parts = tail_split t (sum_phases tail) in
        let width = List.fold_left (fun w s -> Int.max w (String.length s.fn)) 0 stats in
        String.concat ""
          ((fn_table t ~title:t.blame_title stats
           :: "per-fn tail (requests at or above the fn's p99):\n"
           :: List.map
                (fun s ->
                  Printf.sprintf "  %-*s p99=%.3fus n=%d: p99 is %s\n" width s.fn
                    (us s.p99_ps) s.tail_n
                    (split_string (snd (tail_split t s.tail_phase_ps))))
                stats)
          @ [
              Printf.sprintf "tail: for p99 requests (>= %.3f us, n=%d), p99 is %s\n"
                (us p99) (List.length tail) (split_string parts);
              Printf.sprintf "verdict: %s dominates the %s p99 tail\n" worst t.scope;
              Lazy.force t.blame_extra;
            ])
  in
  t.head ^ body ^ conservation_line t

let blame_json t =
  let fns =
    List.map
      (fun s ->
        Json.Obj
          [
            ("fn", Json.String s.fn);
            ("count", Json.Int s.n);
            ("mean_us", Json.Float (s.mean_ps /. 1e6));
            ("p50_us", Json.Float (us s.p50_ps));
            ("p99_us", Json.Float (us s.p99_ps));
            ( "phase_mean_ns",
              Json.Obj
                (List.mapi
                   (fun i name -> (name, Json.Float (s.phase_mean_ps.(i) /. 1e3)))
                   (Array.to_list t.phase_names)) );
            ( "tail_share_pct",
              Json.Obj
                (List.map
                   (fun (name, pct) -> (name, Json.Float pct))
                   (snd (tail_split t s.tail_phase_ps))) );
          ])
      (by_function (Lazy.force t.blame_rows))
  in
  Json.to_string (Json.Obj (t.json_meta @ [ ("functions", Json.List fns) ]))

let blame_csv t =
  String.concat ""
    ("fn,count,mean_us,p50_us,p99_us,phase,mean_ns,tail_share_pct\n"
    :: List.concat_map
         (fun s ->
           let tail_total = Array.fold_left ( + ) 0 s.tail_phase_ps in
           List.mapi
             (fun i name ->
               Printf.sprintf "%s,%d,%.4f,%.4f,%.4f,%s,%.2f,%.2f\n" s.fn s.n (s.mean_ps /. 1e6)
                 (us s.p50_ps) (us s.p99_ps) name
                 (s.phase_mean_ps.(i) /. 1e3)
                 (if tail_total = 0 then 0.0
                  else 100.0 *. float_of_int s.tail_phase_ps.(i) /. float_of_int tail_total))
             (Array.to_list t.phase_names))
         (by_function (Lazy.force t.blame_rows)))
