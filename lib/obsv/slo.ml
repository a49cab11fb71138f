type kind = Latency | Availability

type objective = {
  name : string;
  fn : string option;
  kind : kind;
  percentile : float;
  threshold_ps : int;
  window_ps : int;
  budget : float;
  fast_windows : int;
  slow_windows : int;
  burn_threshold : float;
}

let ps_of_us us = int_of_float (us *. 1e6)

let default =
  {
    name = "p99-latency";
    fn = None;
    kind = Latency;
    percentile = 99.0;
    threshold_ps = ps_of_us 25.0;
    window_ps = ps_of_us 250.0;
    budget = 0.01;
    fast_windows = 1;
    slow_windows = 4;
    burn_threshold = 1.0;
  }

let presets =
  [
    ("none", []);
    ("default", [ default ]);
    ( "tight",
      [
        {
          default with
          name = "p99-tight";
          threshold_ps = ps_of_us 5.0;
          budget = 0.005;
          window_ps = ps_of_us 100.0;
          slow_windows = 6;
        };
      ] );
    ( "ci",
      [
        {
          default with
          name = "p99-burn";
          threshold_ps = ps_of_us 8.0;
          window_ps = ps_of_us 100.0;
          budget = 0.02;
          slow_windows = 3;
        };
      ] );
  ]

let validate o =
  if o.name = "" then Error "objective name must be non-empty"
  else if not (o.percentile > 0.0 && o.percentile < 100.0) then
    Error (Printf.sprintf "%s: p must be in (0, 100)" o.name)
  else if o.threshold_ps <= 0 then
    Error (Printf.sprintf "%s: threshold_us must be > 0" o.name)
  else if o.window_ps <= 0 then
    Error (Printf.sprintf "%s: window_us must be > 0" o.name)
  else if not (o.budget > 0.0 && o.budget < 1.0) then
    Error (Printf.sprintf "%s: budget must be in (0, 1)" o.name)
  else if o.fast_windows < 1 then
    Error (Printf.sprintf "%s: fast must be >= 1" o.name)
  else if o.slow_windows < o.fast_windows then
    Error (Printf.sprintf "%s: slow must be >= fast" o.name)
  else if not (o.burn_threshold > 0.0) then
    Error (Printf.sprintf "%s: burn must be > 0" o.name)
  else Ok o

(* One objective from comma-separated key=value fields, starting from
   [base] (a preset objective or [default]). [auto_name] invents a
   "p99<25us"-style name for unnamed inline objectives; preset-seeded
   objectives keep the preset's name instead. *)
let parse_fields ?(auto_name = true) ~base fields =
  let float_field k v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "%s: expected a number, got %S" k v)
  in
  let int_field k v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "%s: expected an integer, got %S" k v)
  in
  let ( let* ) = Result.bind in
  let named = ref false in
  let rec go o = function
    | [] -> Ok o
    | field :: rest -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "expected key=value, got %S" field)
        | Some i -> (
            let k = String.sub field 0 i in
            let v = String.sub field (i + 1) (String.length field - i - 1) in
            match k with
            | "name" ->
                named := true;
                go { o with name = v } rest
            | "fn" -> go { o with fn = (if v = "" then None else Some v) } rest
            | "kind" -> (
                match v with
                | "latency" -> go { o with kind = Latency } rest
                | "availability" -> go { o with kind = Availability } rest
                | _ ->
                    Error
                      (Printf.sprintf
                         "kind: expected latency or availability, got %S" v))
            | "p" ->
                let* f = float_field k v in
                (* Changing the percentile re-derives the default budget
                   unless one is given explicitly later. *)
                go { o with percentile = f; budget = (100.0 -. f) /. 100.0 } rest
            | "threshold_us" ->
                let* f = float_field k v in
                go { o with threshold_ps = ps_of_us f } rest
            | "window_us" ->
                let* f = float_field k v in
                go { o with window_ps = ps_of_us f } rest
            | "budget" ->
                let* f = float_field k v in
                go { o with budget = f } rest
            | "fast" ->
                let* i = int_field k v in
                go { o with fast_windows = i } rest
            | "slow" ->
                let* i = int_field k v in
                go { o with slow_windows = i } rest
            | "burn" ->
                let* f = float_field k v in
                go { o with burn_threshold = f } rest
            | _ ->
                Error
                  (Printf.sprintf
                     "unknown key %S (valid: name, fn, kind, p, threshold_us, \
                      window_us, budget, fast, slow, burn)"
                     k)))
  in
  let* o = go base fields in
  let o =
    if (not auto_name) || !named || o.name <> base.name then o
    else
      { o with
        name =
          (let suffix =
             match o.fn with None -> "" | Some fn -> ":" ^ fn
           in
           match o.kind with
           | Latency ->
               Printf.sprintf "p%g<%gus%s" o.percentile
                 (float_of_int o.threshold_ps /. 1e6)
                 suffix
           | Availability ->
               Printf.sprintf "avail>=%g%%%s"
                 (100.0 *. (1.0 -. o.budget))
                 suffix);
      }
  in
  validate o

let split sep s =
  String.split_on_char sep s |> List.map String.trim
  |> List.filter (fun f -> f <> "")

let check_unique objectives =
  let rec go seen = function
    | [] -> Ok objectives
    | o :: rest ->
        if List.mem o.name seen then
          Error (Printf.sprintf "duplicate objective name %S" o.name)
        else go (o.name :: seen) rest
  in
  go [] objectives

let parse spec =
  let spec = String.trim spec in
  match List.assoc_opt spec presets with
  | Some objectives -> Ok objectives
  | None -> (
      let parts = split ';' spec in
      if parts = [] then Error "empty SLO spec"
      else
        let parse_one part =
          match split ',' part with
          | [] -> Error "empty objective"
          | first :: rest as fields -> (
              (* A preset name in first position seeds the objective and the
                 remaining fields override it (fault-plan style). *)
              match List.assoc_opt first presets with
              | Some [ base ] -> parse_fields ~auto_name:false ~base rest
              | Some _ ->
                  Error
                    (Printf.sprintf "preset %S cannot take overrides" first)
              | None -> parse_fields ~base:default fields)
        in
        let rec go acc = function
          | [] -> check_unique (List.rev acc)
          | part :: rest -> (
              match parse_one part with
              | Ok o -> go (o :: acc) rest
              | Error e -> Error e)
        in
        go [] parts)

let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go n acc =
            match input_line ic with
            | exception End_of_file -> check_unique (List.rev acc)
            | line -> (
                let line = String.trim line in
                if line = "" || line.[0] = '#' then go (n + 1) acc
                else
                  match parse line with
                  | Ok objectives -> go (n + 1) (List.rev_append objectives acc)
                  | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
          in
          go 1 [])

let parse_arg arg = if Sys.file_exists arg then load ~path:arg else parse arg

let to_string o =
  let g = Jord_util.Render.shortest in
  Printf.sprintf
    "name=%s%s%s,p=%s,threshold_us=%s,window_us=%s,budget=%s,fast=%d,slow=%d,burn=%s"
    o.name
    (match o.fn with None -> "" | Some fn -> ",fn=" ^ fn)
    (match o.kind with Latency -> "" | Availability -> ",kind=availability")
    (g o.percentile)
    (g (float_of_int o.threshold_ps /. 1e6))
    (g (float_of_int o.window_ps /. 1e6))
    (g o.budget) o.fast_windows o.slow_windows (g o.burn_threshold)

let describe o =
  match o.kind with
  | Latency ->
      Printf.sprintf
        "p%g%s < %gus (budget %g%%, %gus windows, burn >= %g over %d/%d windows)"
        o.percentile
        (match o.fn with None -> "" | Some fn -> " of " ^ fn)
        (float_of_int o.threshold_ps /. 1e6)
        (100.0 *. o.budget)
        (float_of_int o.window_ps /. 1e6)
        o.burn_threshold o.fast_windows o.slow_windows
  | Availability ->
      Printf.sprintf
        "availability%s >= %g%% (budget %g%%, %gus windows, burn >= %g over \
         %d/%d windows)"
        (match o.fn with None -> "" | Some fn -> " of " ^ fn)
        (100.0 *. (1.0 -. o.budget))
        (100.0 *. o.budget)
        (float_of_int o.window_ps /. 1e6)
        o.burn_threshold o.fast_windows o.slow_windows
