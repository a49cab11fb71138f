module Json = Jord_util.Json

(* The fleet tracer: glue between the fleet's span construction, the
   deterministic tail sampler, and the rollup's exemplar machinery.

   The fleet records each finished span immediately before feeding the
   same request to the rollup, so when the rollup announces a [Candidate]
   (new open-window max for an objective) the staged span is the one it
   means — we park a copy per objective. When the window closes, the
   rollup announces [Promoted] and we pin the parked span into the
   retained set with reason "exemplar": every exemplar id a verdict table
   names is therefore guaranteed to be present in the trace file. *)

type t = {
  sampler : Fsampler.t;
  mutable staging : Fspan.t option;  (* the span most recently recorded *)
  parked : (string, Fspan.t) Hashtbl.t;  (* objective -> window candidate *)
}

let create ?seed ?reservoir () =
  {
    sampler = Fsampler.create ?seed ?reservoir ();
    staging = None;
    parked = Hashtbl.create 8;
  }

let seed t = Fsampler.seed t.sampler
let reservoir t = Fsampler.reservoir t.sampler
let offered t = Fsampler.offered t.sampler

let record t ?keep sp =
  t.staging <- Some sp;
  Fsampler.offer t.sampler ?keep sp

(* Wire this to [Rollup.set_hook]. *)
let on_exemplar t = function
  | Rollup.Candidate { objective; id } -> (
      match t.staging with
      | Some sp when sp.Fspan.req_id = id -> Hashtbl.replace t.parked objective sp
      | _ -> ())
  | Rollup.Promoted { objective; id; window = _ } -> (
      match Hashtbl.find_opt t.parked objective with
      | Some sp when sp.Fspan.req_id = id ->
          Fsampler.pin t.sampler ~reason:"exemplar" sp
      | _ -> ())
  | Rollup.Transition _ -> ()

let retained t = Fsampler.retained t.sampler
let retained_ids t = List.map (fun (_, sp) -> sp.Fspan.req_id) (retained t)

(* Retention-reason census of the final set, sorted by reason name. *)
let keep_counts t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (reason, _) ->
      Hashtbl.replace tbl reason (1 + Option.value ~default:0 (Hashtbl.find_opt tbl reason)))
    (retained t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- fleet trace files: JSONL, one header object then one span per line,
   sorted by request id (the sampler's canonical order); read back by
   Tracefile.load --- *)

let format_version = 1

let save ~path ?(meta = []) t =
  let spans = retained t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let header =
        Json.Obj
          ([
             ("jord_fleet_trace", Json.Int format_version);
             ("offered", Json.Int (offered t));
             ("retained", Json.Int (List.length spans));
             ("reservoir", Json.Int (reservoir t));
             ("seed", Json.Int (seed t));
           ]
          @ meta)
      in
      output_string oc (Json.to_string header);
      output_char oc '\n';
      List.iter
        (fun (keep, sp) ->
          output_string oc (Fspan.to_json_line ~keep sp);
          output_char oc '\n')
        spans)
