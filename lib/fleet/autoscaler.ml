type spec = {
  min_servers : int;
  max_servers : int;
  interval_us : float;
  up_util : float;
  down_util : float;
  up_after : int;
  down_after : int;
  step : int;
  boot_us : float;
}

let default =
  {
    min_servers = 1;
    max_servers = 0;
    interval_us = 50.0;
    up_util = 0.75;
    down_util = 0.25;
    up_after = 2;
    down_after = 6;
    step = 4;
    boot_us = 250.0;
  }

let presets =
  [
    ("default", default);
    ( "fast",
      { default with interval_us = 20.0; up_after = 1; down_after = 3; step = 8; boot_us = 100.0 } );
  ]

(* Float checks are written so NaN fails them, and durations must be
   finite: a NaN or infinite interval would stall the control loop. *)
let validate t =
  if t.min_servers < 1 then Error "autoscale: min must be >= 1"
  else if t.max_servers < 0 then Error "autoscale: max must be >= 0"
  else if t.max_servers > 0 && t.max_servers < t.min_servers then
    Error "autoscale: max must be >= min"
  else if not (t.interval_us > 0.0 && Float.is_finite t.interval_us) then
    Error "autoscale: interval-us must be finite and > 0"
  else if not (t.up_util > 0.0 && Float.is_finite t.up_util) then
    Error "autoscale: up must be finite and > 0"
  else if not (t.down_util >= 0.0 && t.down_util < t.up_util) then
    Error "autoscale: need 0 <= down < up"
  else if t.up_after < 1 || t.down_after < 1 then
    Error "autoscale: up-after/down-after must be >= 1"
  else if t.step < 1 then Error "autoscale: step must be >= 1"
  else if not (t.boot_us > 0.0 && Float.is_finite t.boot_us) then
    Error "autoscale: boot-us must be finite and > 0"
  else Ok ()

let parse spec_s =
  let apply base kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "autoscale: expected key=value, got %S" kv)
    | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let f () =
          match float_of_string_opt v with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "autoscale: bad float %S for %s" v key)
        in
        let int () =
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> Error (Printf.sprintf "autoscale: bad int %S for %s" v key)
        in
        let ( >>| ) r g = match r with Ok x -> Ok (g x) | Error _ as e -> e in
        match key with
        | "min" -> int () >>| fun x -> { base with min_servers = x }
        | "max" -> int () >>| fun x -> { base with max_servers = x }
        | "interval-us" | "interval_us" -> f () >>| fun x -> { base with interval_us = x }
        | "up" -> f () >>| fun x -> { base with up_util = x }
        | "down" -> f () >>| fun x -> { base with down_util = x }
        | "up-after" | "up_after" -> int () >>| fun x -> { base with up_after = x }
        | "down-after" | "down_after" -> int () >>| fun x -> { base with down_after = x }
        | "step" -> int () >>| fun x -> { base with step = x }
        | "boot-us" | "boot_us" -> f () >>| fun x -> { base with boot_us = x }
        | _ -> Error (Printf.sprintf "autoscale: unknown key %S" key))
  in
  let parts =
    String.split_on_char ',' spec_s |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let base, rest =
    match parts with
    | first :: rest when List.mem_assoc first presets ->
        (List.assoc first presets, rest)
    | _ -> (default, parts)
  in
  let rec go acc = function
    | [] -> Ok acc
    | kv :: rest -> ( match apply acc kv with Ok acc -> go acc rest | Error _ as e -> e)
  in
  match go base rest with
  | Error _ as e -> e
  | Ok t -> ( match validate t with Ok () -> Ok t | Error m -> Error m)

let to_string t =
  let g = Jord_util.Render.shortest in
  Printf.sprintf
    "min=%d,max=%d,interval-us=%s,up=%s,down=%s,up-after=%d,down-after=%d,step=%d,boot-us=%s"
    t.min_servers t.max_servers (g t.interval_us) (g t.up_util) (g t.down_util) t.up_after
    t.down_after t.step (g t.boot_us)

let describe t =
  Printf.sprintf
    "min=%d max=%s interval=%gus up>=%g(x%d) down<=%g(x%d) step=%d boot=%gus"
    t.min_servers
    (if t.max_servers = 0 then "fleet" else string_of_int t.max_servers)
    t.interval_us t.up_util t.up_after t.down_util t.down_after t.step t.boot_us

let resolve t ~fleet =
  let t = if t.max_servers = 0 then { t with max_servers = fleet } else t in
  if t.max_servers > fleet then
    Error
      (Printf.sprintf "autoscale: max=%d exceeds the fleet size %d" t.max_servers
         fleet)
  else if t.min_servers > fleet then
    Error
      (Printf.sprintf "autoscale: min=%d exceeds the fleet size %d" t.min_servers
         fleet)
  else Ok t

type decision = Hold | Up of int | Down of int

type ctl = { spec : spec; mutable up_streak : int; mutable down_streak : int }

let control spec = { spec; up_streak = 0; down_streak = 0 }
let spec c = c.spec

let decide c ~util ~queue ~up ~booting =
  let s = c.spec in
  if util >= s.up_util || queue > 0.0 then begin
    c.up_streak <- c.up_streak + 1;
    c.down_streak <- 0
  end
  else if util <= s.down_util then begin
    c.down_streak <- c.down_streak + 1;
    c.up_streak <- 0
  end
  else begin
    c.up_streak <- 0;
    c.down_streak <- 0
  end;
  let capacity = up + booting in
  if c.up_streak >= s.up_after && capacity < s.max_servers then begin
    c.up_streak <- 0;
    Up (min s.step (s.max_servers - capacity))
  end
  else if c.down_streak >= s.down_after && capacity > s.min_servers then begin
    c.down_streak <- 0;
    Down (min s.step (capacity - s.min_servers))
  end
  else Hold
