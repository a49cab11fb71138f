(* The repository benchmark: four open-loop workloads of the Jord simulator
   (workload.ml), their end-to-end metrics over repetitions in fresh
   processes, and a separate traced run for the per-layer split
   (layers.ml). README.md in this directory states the protocol and every
   metric with its unit, direction and bound.

     main.exe [--seed N] [--json FILE] [WORKLOAD...]
         7 repetitions per workload, interleaved round-robin; prints every
         end-to-end metric's median, quartiles and repetition count
     main.exe ... --seconds S
         repeat each workload for about S seconds (at least 3 times)
     main.exe ... --trace-out DIR   (or --trace 1 to skip the files)
         the traced run: DIR/<workload>.trace.json, DIR/layers.json and
         every per-layer metric
     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload; the last line of stdout is one JSON result
     main.exe --smoke [--spec BENCHMARK.json] [--trace-out DIR]
         every workload at 1/50 of its arrival window, once, in-process,
         plus the traced run; checks the spec lists what is reported
     main.exe --agree A.json B.json [--spec BENCHMARK.json]
         compare two --json results against the spec's bounds

   Exit codes: 0 every check passed; 1 a run crashed or failed a check;
   2 bad arguments (an unknown workload lists the valid ones). *)

module W = Workload
module J = Jord_util.Json
module R = Results

type opts = {
  mutable seed : int;
  mutable seconds : float option;
  mutable json : string option;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable smoke : bool;
  mutable spec : string;
  mutable agree : (string * string) option;
  mutable names : string list;
  (* Internal: one repetition in a child process. *)
  mutable child : string option;
  mutable twin : bool;
  mutable scale : float;
}

let usage =
  "usage: main.exe [--seed N] [--seconds S] [--json FILE] [--trace 0|1] [--trace-out DIR]\n\
  \                [--smoke] [--spec FILE] [--workload W]... [WORKLOAD...]\n\
  \       main.exe --agree A.json B.json [--spec FILE]\n"

let bad_arg msg =
  Printf.eprintf "benchmark: %s\n%s%!" msg usage;
  exit 2

let parse args =
  let o =
    {
      seed = 1;
      seconds = None;
      json = None;
      trace = false;
      trace_out = None;
      smoke = false;
      spec = "BENCHMARK.json";
      agree = None;
      names = [];
      child = None;
      twin = false;
      scale = 1.0;
    }
  in
  let number flag conv v =
    match conv v with Some n -> n | None -> bad_arg (Printf.sprintf "%s: bad value %S" flag v)
  in
  let positive flag v =
    let x = number flag float_of_string_opt v in
    if x > 0.0 && Float.is_finite x then x else bad_arg (flag ^ " must be positive")
  in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        o.seed <- number "--seed" int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- Some (positive "--seconds" v);
        go rest
    | "--json" :: v :: rest ->
        o.json <- Some v;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace-out" :: v :: rest ->
        o.trace_out <- Some v;
        o.trace <- true;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--spec" :: v :: rest ->
        o.spec <- v;
        go rest
    | "--agree" :: a :: b :: rest ->
        o.agree <- Some (a, b);
        go rest
    | "--workload" :: v :: rest ->
        o.names <- o.names @ [ v ];
        go rest
    | "--child" :: v :: rest ->
        o.child <- Some v;
        go rest
    | "--twin" :: rest ->
        o.twin <- true;
        go rest
    | "--scale" :: v :: rest ->
        o.scale <- positive "--scale" v;
        go rest
    | a :: _ when String.length a > 1 && a.[0] = '-' -> bad_arg ("unknown or incomplete option " ^ a)
    | a :: rest ->
        o.names <- o.names @ [ a ];
        go rest
  in
  go args;
  o

let workload name =
  match W.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "benchmark: unknown workload %S; valid workloads: %s\n%!" name
        (String.concat ", " W.names);
      exit 2

let median xs = (R.summarize xs).R.median

(* --- one repetition ------------------------------------------------------------ *)

(* A repetition runs in a fresh child process, so heap growth and peak
   memory are paid per run as a user of the simulator pays them; the
   parent only aggregates. The smoke run stays in-process. *)
let run_rep ~seed ~scale ~in_process ~twin (w : W.t) =
  if in_process then
    match W.run w ~sp:None ~seed ~scale ~twin with
    | o, _ -> Ok { R.o; heap_mb = R.peak_heap_mb () }
    | exception e -> Error (Printexc.to_string e)
  else
    let exe = Sys.executable_name in
    let args =
      [ exe; "--child"; w.W.name; "--seed"; string_of_int seed; "--scale"; R.num scale ]
      @ if twin then [ "--twin" ] else []
    in
    let ic = Unix.open_process_args_in exe (Array.of_list args) in
    let out = In_channel.input_all ic in
    let status = Unix.close_process_in ic in
    let last =
      match List.rev (String.split_on_char '\n' (String.trim out)) with l :: _ -> l | [] -> ""
    in
    match status with
    | Unix.WEXITED 0 -> R.decode "repetition result" R.rep_of_json last
    | Unix.WEXITED n -> Error (Printf.sprintf "child exited %d" n)
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "child killed by signal %d" n)

let child o name =
  let w = workload name in
  let outcome, _ = W.run w ~sp:None ~seed:o.seed ~scale:o.scale ~twin:o.twin in
  print_endline (R.to_string (R.rep_to_json { R.o = outcome; heap_mb = R.peak_heap_mb () }))

(* --- the end-to-end phase -------------------------------------------------------- *)

type state = {
  w : W.t;
  mutable reps : (R.rep, string) result list;  (** Newest first. *)
  mutable spent_s : float;
  mutable rep_s : float list;
  mutable good : R.rep list;  (** Reps that passed every check. *)
  mutable errors : string list;
  mutable attempted : int;
  mutable failed : int;
}

type reps = Fixed of int | Budget of float

(* Repetitions of every workload, interleaved round-robin so a slow period
   on a shared machine is spread over all of them. *)
let e2e_phase ws ~seed ~scale ~in_process ~reps =
  let st =
    List.map
      (fun w ->
        {
          w;
          reps = [];
          spent_s = 0.0;
          rep_s = [];
          good = [];
          errors = [];
          attempted = 0;
          failed = 0;
        })
      ws
  in
  let wants s =
    match reps with
    | Fixed n -> List.length s.reps < n
    | Budget b -> List.length s.reps < 3 || s.spent_s +. median s.rep_s <= b
  in
  while List.exists wants st do
    List.iter
      (fun s ->
        if wants s then begin
          let r, dt = Clock.timed (fun () -> run_rep ~seed ~scale ~in_process ~twin:false s.w) in
          s.reps <- r :: s.reps;
          s.spent_s <- s.spent_s +. dt;
          s.rep_s <- dt :: s.rep_s
        end)
      st
  done;
  List.iter
    (fun s ->
      let fail msg =
        s.failed <- s.failed + 1;
        s.errors <- s.errors @ [ msg ]
      in
      let reference = ref None in
      List.iteri
        (fun i r ->
          s.attempted <- s.attempted + 1;
          match r with
          | Error m -> fail (Printf.sprintf "rep %d crashed: %s" (i + 1) m)
          | Ok r when r.R.o.W.errors <> [] ->
              fail (Printf.sprintf "rep %d: %s" (i + 1) (String.concat "; " r.R.o.W.errors))
          | Ok r -> (
              let sg = (r.R.o.W.sim_sig, r.R.o.W.obsv_sig) in
              match !reference with
              | None ->
                  reference := Some sg;
                  s.good <- [ r ]
              | Some ref_sg when ref_sg = sg -> s.good <- s.good @ [ r ]
              | Some _ -> fail (Printf.sprintf "rep %d simulated a different run than rep 1" (i + 1))))
        (List.rev s.reps);
      (* The sharded cluster must simulate exactly what one engine does. *)
      match (s.w.W.twin, s.good) with
      | Some W.Shards_1, first :: _ -> (
          s.attempted <- s.attempted + 1;
          match run_rep ~seed ~scale ~in_process ~twin:true s.w with
          | Ok t when t.R.o.W.sim_sig = first.R.o.W.sim_sig && t.R.o.W.errors = [] -> ()
          | Ok t -> fail (Printf.sprintf "shards=1 twin differs: %s <> %s" t.R.o.W.sim_sig first.R.o.W.sim_sig)
          | Error m -> fail ("shards=1 twin crashed: " ^ m))
      | _ -> ())
    st;
  st

let e2e_summaries s =
  let values = List.map R.e2e_values s.good in
  List.map
    (fun (d : Metrics.def) -> (d, R.summarize (List.map (List.assoc d.Metrics.name) values)))
    Metrics.end_to_end

let print_e2e s ~seed =
  let n = match s.good with r :: _ -> r.R.o.W.lat_n | [] -> 0 in
  print_string
    (Jord_util.Render.table
       ~title:
         (Printf.sprintf "%s: end to end, seed %d, %d runs, %d failed" s.w.W.name seed
            s.attempted s.failed)
       ~header:[ "metric"; "unit"; "better"; "value"; "median"; "p25"; "p75"; "reps"; "note" ]
       ~rows:
         (List.map
            (fun ((d : Metrics.def), (m : R.summary)) ->
              [
                d.Metrics.name;
                d.Metrics.unit_;
                Metrics.better_name d.Metrics.better;
                Printf.sprintf "%.6g" (R.value d m);
                Printf.sprintf "%.6g" m.R.median;
                Printf.sprintf "%.6g" m.R.p25;
                Printf.sprintf "%.6g" m.R.p75;
                string_of_int (List.length m.R.values);
                (match (d.Metrics.name, d.Metrics.stat) with
                | ("sim_p50_us" | "sim_p99_us"), _ -> Printf.sprintf "n=%d latency samples" n
                | _, Metrics.Best -> "value: best repetition"
                | _ -> "");
              ])
            (e2e_summaries s))
       ());
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) s.errors

(* --- the traced run ------------------------------------------------------------------ *)

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* The traced pass of one workload; returns its per-layer metrics and
   failed checks. With [dir] the trace file is written, then parsed back
   and reconciled from the file. *)
let trace_one s ~seed ~scale ~budget_s ~dir =
  let e2e_run_s = median (List.map (fun r -> r.R.o.W.run_s) s.good) in
  let t = Layers.run s.w ~seed ~scale ~budget_s ~e2e_run_s in
  s.attempted <- s.attempted + 1 + Option.fold ~none:0 ~some:(fun _ -> 1) s.w.W.twin;
  let sig_errors =
    match s.good with
    | r :: _ when r.R.o.W.sim_sig <> t.Layers.main.W.sim_sig || r.R.o.W.obsv_sig <> t.Layers.main.W.obsv_sig ->
        [ Printf.sprintf "traced run differs from the untraced one: %s | %s <> %s | %s" t.Layers.main.W.sim_sig
            t.Layers.main.W.obsv_sig r.R.o.W.sim_sig r.R.o.W.obsv_sig ]
    | _ -> []
  in
  let span_errors =
    match dir with
    | None -> Layers.reconcile_errors ~file:"trace" t.Layers.spans
    | Some dir -> (
        let file = Filename.concat dir (s.w.W.name ^ ".trace.json") in
        let run_id = Printf.sprintf "%s.seed%d.pid%d" s.w.W.name seed (Unix.getpid ()) in
        write_file file (Spans.to_chrome_json ~run_id ~workload:s.w.W.name t.Layers.spans);
        match Spans.of_chrome_json (R.read_file file) with
        | Ok spans -> Layers.reconcile_errors ~file spans
        | Error m -> [ file ^ ": " ^ m ])
  in
  let errors = t.Layers.errors @ sig_errors @ span_errors in
  if errors <> [] then s.failed <- s.failed + 1;
  s.errors <- s.errors @ errors;
  print_string
    (Jord_util.Render.table
       ~title:(Printf.sprintf "%s: per layer (traced run, seed %d)" s.w.W.name seed)
       ~header:[ "metric"; "unit"; "value" ]
       ~rows:
         (List.map
            (fun ((d : Metrics.def), v) ->
              [ d.Metrics.name; d.Metrics.unit_; Printf.sprintf "%.6g" v ])
            t.Layers.metrics)
       ());
  print_string (Layers.self_time_table t.Layers.spans);
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) errors;
  t.Layers.metrics

(* --- output ------------------------------------------------------------------------------ *)

let header ws ~seed ~scale =
  Printf.printf "benchmark: clock=%s seed=%d nproc=%d ocaml=%s scale=%s\n" Clock.name seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (R.num scale);
  List.iter
    (fun (w : W.t) ->
      Printf.printf "  %-20s arrival window %g us (simulated), open loop: %s\n" w.W.name
        (w.W.window_us *. scale) w.W.why)
    ws;
  J.Obj
    [
      ("clock", J.String Clock.name);
      ("seed", J.Int seed);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("scale", J.Float scale);
      ("windows_us", J.Obj (List.map (fun (w : W.t) -> (w.W.name, J.Float (w.W.window_us *. scale))) ws));
    ]

let metric_obj ~single named =
  J.Obj
    (List.concat_map
       (fun (w, metrics) ->
         List.map
           (fun ((d : Metrics.def), v) ->
             ( (if single then d.Metrics.name else w ^ "." ^ d.Metrics.name),
               J.Obj [ ("value", J.Float v); ("unit", J.String d.Metrics.unit_) ] ))
           metrics)
       named)

(* The --json file: the header, the run's outcome and, per workload, every
   end-to-end summary, its failed checks and its per-layer values. *)
let results_json ~header ~outcome st e2e layers =
  let workload s =
    let name = s.w.W.name in
    ( name,
      J.Obj
        ([
           ( "e2e",
             J.Obj
               (List.map (fun ((d : Metrics.def), m) -> (d.Metrics.name, R.summary_to_json d m)) (List.assoc name e2e))
           );
           ("errors", J.List (List.map (fun e -> J.String e) s.errors));
         ]
        @
        match List.assoc_opt name layers with
        | Some m -> [ ("per_layer", metric_obj ~single:true [ (name, m) ]) ]
        | None -> []) )
  in
  R.to_string (J.Obj ((("header", header) :: outcome) @ [ ("workloads", J.Obj (List.map workload st)) ])) ^ "\n"

(* --- entry points ------------------------------------------------------------------------------ *)

let bench o =
  (match Clock.self_check () with
  | Ok () -> ()
  | Error m ->
      prerr_endline ("benchmark: " ^ m);
      exit 1);
  let ws = List.map workload (if o.names = [] then W.names else o.names) in
  let scale = if o.smoke then 1.0 /. 50.0 else 1.0 in
  let header = header ws ~seed:o.seed ~scale in
  let spec_errors =
    if not o.smoke then []
    else match R.load_spec o.spec with Ok spec -> R.spec_errors spec | Error m -> [ m ]
  in
  List.iter (fun e -> Printf.printf "  FAILED: %s\n" e) spec_errors;
  let reps =
    if o.smoke then Fixed 1
    else if o.trace then Fixed 3
    else match o.seconds with Some b -> Budget b | None -> Fixed 7
  in
  let st = e2e_phase ws ~seed:o.seed ~scale ~in_process:o.smoke ~reps in
  List.iter (print_e2e ~seed:o.seed) st;
  let layers =
    if not (o.trace || o.smoke) then []
    else begin
      Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) o.trace_out;
      let budget_s = if o.smoke then 0.01 else 0.2 in
      let layers =
        List.map
          (fun s ->
            (s.w.W.name, trace_one s ~seed:o.seed ~scale ~budget_s ~dir:o.trace_out))
          st
      in
      Option.iter
        (fun d -> write_file (Filename.concat d "layers.json") (R.to_string (metric_obj ~single:false layers) ^ "\n"))
        o.trace_out;
      layers
    end
  in
  let e2e = List.map (fun s -> (s.w.W.name, e2e_summaries s)) st in
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 st in
  let failed = List.fold_left (fun a s -> a + s.failed) 0 st in
  let correct = spec_errors = [] && List.for_all (fun s -> s.errors = []) st in
  let outcome = [ ("correct", J.Bool correct); ("attempted", J.Int attempted); ("failed", J.Int failed) ] in
  Option.iter (fun path -> write_file path (results_json ~header ~outcome st e2e layers)) o.json;
  let single = List.length ws = 1 in
  let metrics =
    if o.trace && not o.smoke then metric_obj ~single layers
    else
      metric_obj ~single
        (List.map (fun (w, ms) -> (w, List.map (fun (d, m) -> (d, R.value d m)) ms)) e2e)
  in
  print_endline (R.to_string (J.Obj (outcome @ [ ("metrics", metrics) ])));
  List.iter (fun e -> prerr_endline ("benchmark: FAILED: " ^ e)) (spec_errors @ List.concat_map (fun s -> s.errors) st);
  exit (if correct then 0 else 1)

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match (o.agree, o.child) with
  | Some (a, b), _ -> (
      match R.load_spec o.spec with
      | Error m ->
          prerr_endline ("benchmark: " ^ m);
          exit 2
      | Ok spec -> (
          match R.agree ~spec a b with
          | Ok true -> exit 0
          | Ok false -> exit 1
          | Error m ->
              prerr_endline ("benchmark: " ^ m);
              exit 2))
  | None, Some name -> child o name
  | None, None -> bench o
