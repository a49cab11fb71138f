(* Host-time spans recorded on the benchmark's side of each public call into
   the simulator libraries. Nothing inside the program is instrumented: a
   span is a pair of monotonic stamps taken around a call, with the span
   that was open at the time as its parent. Spans stay in memory and are
   written out as one Chrome/Perfetto trace file when the run ends. *)

type span = { id : int; name : string; parent : int; start_ns : int; end_ns : int }

type t = {
  mutable next_id : int;
  mutable open_ : int list;  (** Innermost open span first. *)
  mutable closed : span list;
}

let create () = { next_id = 0; open_ = []; closed = [] }

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.open_ with p :: _ -> p | [] -> -1

(* A span over stamps taken elsewhere (on both sides of a library hook),
   parented to the span open now. *)
let add t name ~start_ns ~end_ns =
  t.closed <- { id = fresh t; name; parent = current t; start_ns; end_ns } :: t.closed

let span t name f =
  let id = fresh t in
  let parent = current t in
  t.open_ <- id :: t.open_;
  let start_ns = Clock.now_ns () in
  let close () =
    t.open_ <- List.tl t.open_;
    t.closed <- { id; name; parent; start_ns; end_ns = Clock.now_ns () } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* [span] when tracing, a plain call otherwise: the untraced path pays
   nothing. *)
let opt sp name f = match sp with Some t -> span t name f | None -> f ()

let dur_ns s = s.end_ns - s.start_ns

let spans t =
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) t.closed

(* A span's self time: its duration minus what its children cover. *)
let self_ns spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc - dur_ns c else acc)
    (dur_ns s) spans

let rec subtree spans s =
  s :: List.concat_map (fun c -> if c.parent = s.id then subtree spans c else []) spans

(* Sum of self times over a root's subtree divided by the root's duration:
   1.0 when children nest inside their parents without overlap. *)
let reconcile spans root =
  let self = List.fold_left (fun acc s -> acc + Int.max 0 (self_ns spans s)) 0 (subtree spans root) in
  float_of_int self /. float_of_int (Int.max 1 (dur_ns root))

(* --- Chrome/Perfetto trace file ------------------------------------------

   Complete ("X") events with microsecond [ts]/[dur] printed to the
   nanosecond, so the file round-trips the stamps exactly. *)

let to_chrome_json ~run_id ~workload spans =
  let base = List.fold_left (fun acc s -> Int.min acc s.start_ns) max_int spans in
  let us ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e3) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"run_id\":\"";
  Buffer.add_string buf (Jord_util.Json.escape run_id);
  Buffer.add_string buf "\",\"workload\":\"";
  Buffer.add_string buf (Jord_util.Json.escape workload);
  Buffer.add_string buf "\"},\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":\"%s\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%d,\"parent\":%d,\"run_id\":\"%s\"}}"
        (Jord_util.Json.escape s.name) (us (s.start_ns - base)) (us (dur_ns s)) s.id s.parent
        (Jord_util.Json.escape run_id))
    spans;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let of_chrome_json text =
  let module J = Jord_util.Json in
  let num = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None in
  let ns_of us = int_of_float (Float.round (us *. 1e3)) in
  let event e =
    match
      ( J.member "name" e,
        Option.bind (J.member "ts" e) num,
        Option.bind (J.member "dur" e) num,
        Option.bind (J.member "args" e) (J.member "id"),
        Option.bind (J.member "args" e) (J.member "parent") )
    with
    | Some (J.String name), Some ts, Some dur, Some (J.Int id), Some (J.Int parent) ->
        let start_ns = ns_of ts in
        Ok { id; name; parent; start_ns; end_ns = start_ns + ns_of dur }
    | _ -> Error "trace event lacks name/ts/dur/args.id/args.parent"
  in
  match J.of_string text with
  | Error m -> Error m
  | Ok doc -> (
      match J.member "traceEvents" doc with
      | Some (J.List evs) ->
          List.fold_right
            (fun e acc ->
              match (acc, event e) with
              | Ok xs, Ok x -> Ok (x :: xs)
              | (Error _ as err), _ -> err
              | _, Error m -> Error m)
            evs (Ok [])
      | _ -> Error "no traceEvents array")
