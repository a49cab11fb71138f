type t = {
  seed : int;
  crash : float;
  restart_us : float;
  stall : float;
  stall_us : float;
  loss : float;
  dup : float;
  jitter_us : float;
  slow : float;
  slow_factor : float;
  server_crash : float;
  server_down_us : float;
  warm_loss : float;
}

let none =
  {
    seed = 1;
    crash = 0.0;
    restart_us = 20.0;
    stall = 0.0;
    stall_us = 5.0;
    loss = 0.0;
    dup = 0.0;
    jitter_us = 0.0;
    slow = 0.0;
    slow_factor = 3.0;
    server_crash = 0.0;
    server_down_us = 200.0;
    warm_loss = 1.0;
  }

(* The CI determinism smoke: every fault class enabled at a rate that keeps
   most requests flowing while exercising every recovery path. Whole-server
   crashes stay off here so the historical chaos goldens are untouched; the
   server failure domain has its own plans (see [harsh] and the
   "server-crash=..." spellings in the docs). *)
let ci_smoke =
  {
    seed = 1337;
    crash = 0.02;
    restart_us = 20.0;
    stall = 0.05;
    stall_us = 5.0;
    loss = 0.1;
    dup = 0.05;
    jitter_us = 3.0;
    slow = 0.05;
    slow_factor = 3.0;
    server_crash = 0.0;
    server_down_us = 200.0;
    warm_loss = 1.0;
  }

let mild = { ci_smoke with seed = 7; crash = 0.005; loss = 0.02; dup = 0.01 }

let harsh =
  {
    seed = 13;
    crash = 0.1;
    restart_us = 50.0;
    stall = 0.2;
    stall_us = 10.0;
    loss = 0.3;
    dup = 0.15;
    jitter_us = 8.0;
    slow = 0.2;
    slow_factor = 5.0;
    server_crash = 0.02;
    server_down_us = 100.0;
    warm_loss = 1.0;
  }

let presets = [ ("none", none); ("ci-smoke", ci_smoke); ("mild", mild); ("harsh", harsh) ]

let active t =
  t.crash > 0.0 || t.stall > 0.0 || t.loss > 0.0 || t.dup > 0.0
  || t.jitter_us > 0.0 || t.slow > 0.0 || t.server_crash > 0.0

let validate t =
  (* Written so NaN fails every check: a non-finite rate or duration would
     otherwise slip through and stall the run. *)
  let prob name v =
    if v >= 0.0 && v <= 1.0 then Ok () else Error (Printf.sprintf "%s must be in [0,1]" name)
  in
  let nonneg name v =
    if v >= 0.0 && Float.is_finite v then Ok ()
    else Error (Printf.sprintf "%s must be finite and >= 0" name)
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  prob "crash" t.crash
  >>= fun () ->
  prob "stall" t.stall
  >>= fun () ->
  prob "loss" t.loss
  >>= fun () ->
  prob "dup" t.dup
  >>= fun () ->
  prob "slow" t.slow
  >>= fun () ->
  prob "server-crash" t.server_crash
  >>= fun () ->
  prob "warm-loss" t.warm_loss
  >>= fun () ->
  nonneg "restart-us" t.restart_us
  >>= fun () ->
  nonneg "stall-us" t.stall_us
  >>= fun () ->
  nonneg "jitter-us" t.jitter_us
  >>= fun () ->
  nonneg "server-down-us" t.server_down_us
  >>= fun () ->
  if t.slow_factor >= 1.0 && Float.is_finite t.slow_factor then Ok ()
  else Error "slow-factor must be finite and >= 1"

(* Spec grammar: a preset name, or "k=v,k=v,..." (optionally seeded from a
   preset, e.g. "ci-smoke,loss=0.5"). *)
let parse spec =
  let apply base kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "fault plan: expected key=value, got %S" kv)
    | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        let f () =
          match float_of_string_opt v with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "fault plan: bad float %S for %s" v key)
        in
        let ( >>| ) r g = match r with Ok x -> Ok (g x) | Error _ as e -> e in
        match key with
        | "seed" -> (
            match int_of_string_opt v with
            | Some s -> Ok { base with seed = s }
            | None -> Error (Printf.sprintf "fault plan: bad int %S for seed" v))
        | "crash" -> f () >>| fun x -> { base with crash = x }
        | "restart-us" | "restart_us" -> f () >>| fun x -> { base with restart_us = x }
        | "stall" -> f () >>| fun x -> { base with stall = x }
        | "stall-us" | "stall_us" -> f () >>| fun x -> { base with stall_us = x }
        | "loss" -> f () >>| fun x -> { base with loss = x }
        | "dup" -> f () >>| fun x -> { base with dup = x }
        | "jitter-us" | "jitter_us" -> f () >>| fun x -> { base with jitter_us = x }
        | "slow" -> f () >>| fun x -> { base with slow = x }
        | "slow-factor" | "slow_factor" -> f () >>| fun x -> { base with slow_factor = x }
        | "server-crash" | "server_crash" ->
            f () >>| fun x -> { base with server_crash = x }
        | "server-down-us" | "server_down_us" ->
            f () >>| fun x -> { base with server_down_us = x }
        | "warm-loss" | "warm_loss" -> f () >>| fun x -> { base with warm_loss = x }
        | _ -> Error (Printf.sprintf "fault plan: unknown key %S" key))
  in
  let parts =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let base, rest =
    match parts with
    | first :: rest when List.mem_assoc first presets ->
        (List.assoc first presets, rest)
    | _ -> (none, parts)
  in
  let rec go acc = function
    | [] -> Ok acc
    | kv :: rest -> ( match apply acc kv with Ok acc -> go acc rest | Error _ as e -> e)
  in
  match go base rest with
  | Error _ as e -> e
  | Ok plan -> ( match validate plan with Ok () -> Ok plan | Error m -> Error m)

let to_string t =
  let g = Jord_util.Render.shortest in
  Printf.sprintf
    "seed=%d,crash=%s,restart-us=%s,stall=%s,stall-us=%s,loss=%s,dup=%s,jitter-us=%s,slow=%s,slow-factor=%s,server-crash=%s,server-down-us=%s,warm-loss=%s"
    t.seed (g t.crash) (g t.restart_us) (g t.stall) (g t.stall_us) (g t.loss) (g t.dup)
    (g t.jitter_us) (g t.slow) (g t.slow_factor) (g t.server_crash) (g t.server_down_us)
    (g t.warm_loss)
