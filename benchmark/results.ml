(* Encoding of results: the line a repetition's child process hands its
   parent, the end-to-end summaries, the --json results file, the
   BENCHMARK.json spec, and the --agree comparison of two results files.

   Floats are printed with 17 significant digits ([Jord_util.Json] prints
   6), so every value survives a round trip exactly. *)

module J = Jord_util.Json
module W = Workload

let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_buffer buf = function
  | J.Float f -> Buffer.add_string buf (num f)
  | J.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | J.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          J.to_buffer buf (J.String k);
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'
  | leaf -> J.to_buffer buf leaf

let to_string v =
  let buf = Buffer.create 1024 in
  to_buffer buf v;
  Buffer.contents buf

(* --- decoding helpers ------------------------------------------------------ *)

exception Bad of string

let get key j = match J.member key j with Some v -> v | None -> raise (Bad ("missing " ^ key))
let float_of = function J.Int i -> float_of_int i | J.Float f -> f | _ -> raise (Bad "number expected")
let int_of = function J.Int i -> i | _ -> raise (Bad "integer expected")
let string_of = function J.String s -> s | _ -> raise (Bad "string expected")
let list_of = function J.List xs -> xs | _ -> raise (Bad "list expected")
let fields_of = function J.Obj fs -> fs | _ -> raise (Bad "object expected")

let decode what f text =
  match J.of_string text with
  | Error m -> Error (Printf.sprintf "%s: %s" what m)
  | Ok j -> ( try Ok (f j) with Bad m -> Error (Printf.sprintf "%s: %s" what m))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- one repetition -------------------------------------------------------- *)

type rep = { o : W.outcome; heap_mb : float }

let rep_to_json { o; heap_mb } =
  J.Obj
    [
      ("setup_s", J.Float o.W.setup_s);
      ("run_s", J.Float o.W.run_s);
      ("report_s", J.Float o.W.report_s);
      ("arrivals", J.Int o.W.arrivals);
      ("completed", J.Int o.W.completed);
      ("shed", J.Int o.W.shed);
      ("lat_n", J.Int o.W.lat_n);
      ("p50_us", J.Float o.W.p50_us);
      ("p99_us", J.Float o.W.p99_us);
      ("events", J.Int o.W.events);
      ("sim_sig", J.String o.W.sim_sig);
      ("obsv_sig", J.String o.W.obsv_sig);
      ("errors", J.List (List.map (fun e -> J.String e) o.W.errors));
      ("peak_heap_mb", J.Float heap_mb);
    ]

let rep_of_json j =
  let f k = float_of (get k j) and i k = int_of (get k j) and s k = string_of (get k j) in
  {
    o =
      {
        W.setup_s = f "setup_s";
        run_s = f "run_s";
        report_s = f "report_s";
        arrivals = i "arrivals";
        completed = i "completed";
        shed = i "shed";
        lat_n = i "lat_n";
        p50_us = f "p50_us";
        p99_us = f "p99_us";
        events = i "events";
        sim_sig = s "sim_sig";
        obsv_sig = s "obsv_sig";
        errors = List.map string_of (list_of (get "errors" j));
      };
    heap_mb = f "peak_heap_mb";
  }

(* The major heap's high-water mark of this process. *)
let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Every end-to-end metric of one repetition, in [Metrics.end_to_end]
   order. *)
let e2e_values { o; heap_mb } =
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  [
    ("setup_s", o.W.setup_s);
    ("sim_req_per_s", ratio (float_of_int o.W.completed) o.W.run_s);
    ("peak_heap_mb", heap_mb);
    ("sim_p50_us", o.W.p50_us);
    ("sim_p99_us", o.W.p99_us);
    ("sim_served_ratio", ratio (float_of_int o.W.completed) (float_of_int o.W.arrivals));
  ]

(* --- summaries ---------------------------------------------------------------- *)

type summary = { median : float; p25 : float; p75 : float; values : float list }

let summarize values =
  let a = Array.of_list values in
  let p q = if a = [||] then Float.nan else Jord_util.Stats.percentile a q in
  { median = p 50.0; p25 = p 25.0; p75 = p 75.0; values }

(* The value an invocation reports for the metric. *)
let value (d : Metrics.def) s =
  match (d.Metrics.stat, d.Metrics.better, s.values) with
  | _, _, [] | Metrics.Median, _, _ -> s.median
  | Metrics.Best, Metrics.Higher, v :: vs -> List.fold_left Float.max v vs
  | Metrics.Best, Metrics.Lower, v :: vs -> List.fold_left Float.min v vs

let summary_to_json (d : Metrics.def) s =
  J.Obj
    [
      ("value", J.Float (value d s));
      ("median", J.Float s.median);
      ("p25", J.Float s.p25);
      ("p75", J.Float s.p75);
      ("n", J.Int (List.length s.values));
      ("unit", J.String d.Metrics.unit_);
      ("better", J.String (Metrics.better_name d.Metrics.better));
      ("values", J.List (List.map (fun v -> J.Float v) s.values));
    ]

(* --- BENCHMARK.json ------------------------------------------------------------- *)

type spec_metric = { s_name : string; s_unit : string; s_better : string; s_bound : float option }

type spec = { s_workloads : string list; s_e2e : spec_metric list; s_layers : spec_metric list }

let load_spec path =
  match read_file path with
  | exception Sys_error m -> Error m
  | text ->
      decode path
        (fun j ->
          let metric m =
            {
              s_name = string_of (get "name" m);
              s_unit = string_of (get "unit" m);
              s_better = string_of (get "better" m);
              s_bound = Option.map float_of (J.member "bound" m);
            }
          in
          {
            s_workloads = List.map (fun w -> string_of (get "name" w)) (list_of (get "workloads" j));
            s_e2e = List.map metric (list_of (get "end_to_end" j));
            s_layers = List.map metric (list_of (get "per_layer" j));
          })
        text

(* The spec and the benchmark must list the same workloads and metrics,
   with the same units and directions. *)
let spec_errors spec =
  let check kind listed defs =
    let names = List.map (fun m -> m.s_name) listed in
    List.filter_map
      (fun m ->
        match List.find_opt (fun (d : Metrics.def) -> d.Metrics.name = m.s_name) defs with
        | None -> Some (Printf.sprintf "%s metric %s is not reported" kind m.s_name)
        | Some d when d.Metrics.unit_ <> m.s_unit || Metrics.better_name d.Metrics.better <> m.s_better ->
            Some
              (Printf.sprintf "%s metric %s: spec says %s/%s, benchmark reports %s/%s" kind m.s_name
                 m.s_unit m.s_better d.Metrics.unit_ (Metrics.better_name d.Metrics.better))
        | Some _ -> None)
      listed
    @ List.filter_map
        (fun (d : Metrics.def) ->
          if List.mem d.Metrics.name names then None
          else Some (Printf.sprintf "%s metric %s is missing from the spec" kind d.Metrics.name))
        defs
  in
  (if List.sort compare spec.s_workloads = List.sort compare W.names then []
   else [ "spec workloads differ from the benchmark's: " ^ String.concat ", " spec.s_workloads ])
  @ check "end-to-end" spec.s_e2e Metrics.end_to_end
  @ check "per-layer" spec.s_layers Metrics.per_layer

(* --- --agree ------------------------------------------------------------------------ *)

(* The value of every end-to-end metric per workload, from a --json file. *)
let load_values path =
  match read_file path with
  | exception Sys_error m -> Error m
  | text ->
      decode path
        (fun j ->
          ( int_of (get "failed" j),
            List.filter_map
              (fun (w, body) ->
                Option.map
                  (fun e2e ->
                    (w, List.map (fun (m, s) -> (m, float_of (get "value" s))) (fields_of e2e)))
                  (J.member "e2e" body))
              (fields_of (get "workloads" j)) ))
        text

(* One row per workload: each metric's change from A to B, flagged where it
   exceeds the spec's bound in either direction. [Ok true] = all agree. *)
let agree ~spec a_path b_path =
  match (load_values a_path, load_values b_path) with
  | Error m, _ | _, Error m -> Error m
  | Ok (a_failed, a), Ok (b_failed, b) ->
      let ok = ref (a_failed = 0 && b_failed = 0) in
      let rows =
        List.filter_map
          (fun (w, am) ->
            Option.map
              (fun bm ->
                w
                :: List.map
                     (fun m ->
                       match (List.assoc_opt m.s_name am, List.assoc_opt m.s_name bm, m.s_bound) with
                       | Some x, Some y, Some bound ->
                           let rel = if x = 0.0 then if y = 0.0 then 0.0 else infinity else (y -. x) /. x in
                           let bad = Float.abs rel > bound in
                           if bad then ok := false;
                           Printf.sprintf "%+.2f%%%s" (100.0 *. rel) (if bad then " !" else "")
                       | _ ->
                           ok := false;
                           "missing")
                     spec.s_e2e)
              (List.assoc_opt w b))
          a
      in
      if rows = [] then ok := false;
      print_string
        (Jord_util.Render.table
           ~title:(Printf.sprintf "agree: %s -> %s (failed %d / %d)" a_path b_path a_failed b_failed)
           ~header:("workload" :: List.map (fun m -> m.s_name) spec.s_e2e)
           ~rows ());
      print_string
        (Jord_util.Render.table ~title:"bounds"
           ~header:[ "metric"; "unit"; "better"; "bound" ]
           ~rows:
             (List.map
                (fun m ->
                  [ m.s_name; m.s_unit; m.s_better; Option.fold ~none:"-" ~some:(Printf.sprintf "%g") m.s_bound ])
                spec.s_e2e)
           ());
      Ok !ok
