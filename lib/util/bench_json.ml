type kind = Time | Count

type metric = {
  name : string;
  kind : kind;
  unit_ : string;
  value : float;
  median : float;
  iqr : float;
  repetitions : int;
  tolerance : float option;
}

type doc = { experiment : string; metrics : metric list }

let schema_version = 1

let metric ?(kind = Time) ?tolerance ~name ~unit_ samples =
  if samples = [] then invalid_arg "Bench_json.metric: empty samples";
  let arr = Array.of_list samples in
  let median = Stats.percentile arr 50.0 in
  let iqr = Stats.percentile arr 75.0 -. Stats.percentile arr 25.0 in
  {
    name;
    kind;
    unit_;
    value = median;
    median;
    iqr;
    repetitions = Array.length arr;
    tolerance;
  }

let count ?tolerance ~name ~unit_ v = metric ~kind:Count ?tolerance ~name ~unit_ [ v ]

(* --- JSON --- *)

let kind_name = function Time -> "time" | Count -> "count"

let kind_of_name = function
  | "time" -> Ok Time
  | "count" -> Ok Count
  | other -> Error (Printf.sprintf "unknown metric kind %S" other)

let metric_to_json m =
  Json.Obj
    ([
       ("name", Json.String m.name);
       ("kind", Json.String (kind_name m.kind));
       ("unit", Json.String m.unit_);
       ("value", Json.Float m.value);
       ("median", Json.Float m.median);
       ("iqr", Json.Float m.iqr);
       ("repetitions", Json.Int m.repetitions);
     ]
    @ match m.tolerance with None -> [] | Some t -> [ ("tolerance", Json.Float t) ])

let to_json doc =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("experiment", Json.String doc.experiment);
      ("metrics", Json.List (List.map metric_to_json doc.metrics));
    ]

let to_string doc = Json.to_string (to_json doc)

let ( let* ) = Result.bind

let str_field name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S: expected a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let num_field name j =
  match Json.member name j with
  | Some (Json.Float f) -> Ok f
  | Some (Json.Int i) -> Ok (float_of_int i)
  | Some _ -> Error (Printf.sprintf "field %S: expected a number" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let metric_of_json j =
  let* name = str_field "name" j in
  let* kind_s = str_field "kind" j in
  let* kind = kind_of_name kind_s in
  let* unit_ = str_field "unit" j in
  let* value = num_field "value" j in
  let* median = num_field "median" j in
  let* iqr = num_field "iqr" j in
  let* reps = num_field "repetitions" j in
  let* tolerance =
    match Json.member "tolerance" j with
    | None -> Ok None
    | Some _ -> Result.map Option.some (num_field "tolerance" j)
  in
  Ok
    {
      name;
      kind;
      unit_;
      value;
      median;
      iqr;
      repetitions = int_of_float reps;
      tolerance;
    }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let of_json j =
  let* experiment = str_field "experiment" j in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.List ms) -> map_result metric_of_json ms
    | Some _ -> Error "field \"metrics\": expected a list"
    | None -> Error "missing field \"metrics\""
  in
  Ok { experiment; metrics }

let of_string s =
  let* j = Json.of_string s in
  of_json j

let filename experiment = Printf.sprintf "BENCH_%s.json" experiment

let write_dir ~dir doc =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename doc.experiment) in
  let oc = open_out path in
  output_string oc (to_string doc);
  output_char oc '\n';
  close_out oc;
  path

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error m -> Error m

(* --- baseline --- *)

type baseline = { default_tolerance : float; experiments : doc list }

let baseline_to_string b =
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.Int schema_version);
         ("default_tolerance", Json.Float b.default_tolerance);
         ("experiments", Json.List (List.map to_json b.experiments));
       ])

let baseline_of_string s =
  let* j = Json.of_string s in
  let* default_tolerance = num_field "default_tolerance" j in
  let* experiments =
    match Json.member "experiments" j with
    | Some (Json.List ds) -> map_result of_json ds
    | Some _ -> Error "field \"experiments\": expected a list"
    | None -> Error "missing field \"experiments\""
  in
  Ok { default_tolerance; experiments }

let read_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> baseline_of_string s
  | exception Sys_error m -> Error m

(* --- comparator --- *)

type status = Ok_within | Advisory | Fail | Missing | Unpinned

type verdict = {
  v_experiment : string;
  v_metric : string;
  v_kind : kind;
  v_baseline : float;
  v_current : float;
  v_deviation : float;
  v_allowed : float;
  v_status : status;
}

let deviation ~baseline ~current =
  let denom = Float.max (Float.abs baseline) 1e-12 in
  Float.abs (current -. baseline) /. denom

(* A verdict on one metric; a NaN side is a side that does not hold it. *)
let verdict ~experiment ~allowed ~metric ~kind ~baseline ~current status =
  {
    v_experiment = experiment;
    v_metric = metric;
    v_kind = kind;
    v_baseline = baseline;
    v_current = current;
    v_deviation =
      (if Float.is_nan baseline || Float.is_nan current then infinity
       else deviation ~baseline ~current);
    v_allowed = allowed;
    v_status = status;
  }

let compare_docs ?(default_tolerance = 0.2) ~baseline ~current () =
  let find name doc = List.find_opt (fun m -> m.name = name) doc.metrics in
  let judge m ~base ~cur status =
    verdict ~experiment:baseline.experiment
      ~allowed:(Option.value m.tolerance ~default:default_tolerance)
      ~metric:m.name ~kind:m.kind ~baseline:base ~current:cur status
  in
  List.map
    (fun bm ->
      match find bm.name current with
      | None -> judge bm ~base:bm.value ~cur:nan Missing
      | Some cm ->
          let v = judge bm ~base:bm.value ~cur:cm.value Ok_within in
          if v.v_deviation <= v.v_allowed then v
          else { v with v_status = (match bm.kind with Time -> Advisory | Count -> Fail) })
    baseline.metrics
  (* A count the baseline does not hold is a gate nobody set. *)
  @ List.filter_map
      (fun cm ->
        if cm.kind = Count && find cm.name baseline = None then
          Some (judge cm ~base:nan ~cur:cm.value Unpinned)
        else None)
      current.metrics

let compare_baseline b docs =
  let report name = List.find_opt (fun (d : doc) -> d.experiment = name) in
  let whole experiment status =
    verdict ~experiment ~allowed:b.default_tolerance ~metric:"<report>" ~kind:Count
      ~baseline:nan ~current:nan status
  in
  List.concat_map
    (fun base ->
      match report base.experiment docs with
      | Some current ->
          compare_docs ~default_tolerance:b.default_tolerance ~baseline:base ~current ()
      | None -> [ whole base.experiment Missing ])
    b.experiments
  @ List.filter_map
      (fun d ->
        if report d.experiment b.experiments = None then Some (whole d.experiment Unpinned)
        else None)
      docs

let has_failure verdicts =
  List.exists
    (fun v ->
      match v.v_status with Fail | Missing | Unpinned -> true | Ok_within | Advisory -> false)
    verdicts

let status_name = function
  | Ok_within -> "ok"
  | Advisory -> "ADVISORY"
  | Fail -> "FAIL"
  | Missing -> "MISSING"
  | Unpinned -> "UNPINNED"

let render_verdicts verdicts =
  let num x = if Float.is_nan x then "-" else Printf.sprintf "%g" x in
  Render.table
    ~header:
      [ "experiment"; "metric"; "kind"; "baseline"; "current"; "dev"; "allowed"; "status" ]
    ~rows:
      (List.map
         (fun v ->
           [
             v.v_experiment;
             v.v_metric;
             kind_name v.v_kind;
             num v.v_baseline;
             num v.v_current;
             (if Float.is_finite v.v_deviation then
                Printf.sprintf "%.1f%%" (100.0 *. v.v_deviation)
              else "-");
             Printf.sprintf "%g%%" (100.0 *. v.v_allowed);
             status_name v.v_status;
           ])
         verdicts)
    ()
