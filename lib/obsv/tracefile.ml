module Trace = Jord_faas.Trace
module Json = Jord_util.Json

(* JSONL trace files: one header object, then one compact object per event,
   oldest retained first. All times are integer picoseconds — the format
   round-trips exactly (the Chrome export's float microseconds do not),
   which the conservation checks depend on. [load] also reads the fleet's
   span files, which share the layout under their own header key. *)

let format_version = 1

let save ~path ?(meta = []) tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let header =
        Json.Obj
          ([
             ("jord_trace", Json.Int format_version);
             ("total_emitted", Json.Int (Trace.total_emitted tr));
             ("capacity", Json.Int (Trace.capacity tr));
             ("truncated", Json.Bool (Trace.truncated tr));
           ]
          @ meta)
      in
      output_string oc (Json.to_string header);
      output_char oc '\n';
      let buf = Buffer.create 256 in
      Trace.iter tr (fun e ->
          Buffer.clear buf;
          Buffer.add_string buf
            (Printf.sprintf "{\"a\":%d,\"k\":\"%s\",\"r\":%d,\"g\":%d" e.Trace.at_ps
               (Trace.kind_name e.Trace.kind)
               e.Trace.req_id e.Trace.root_id);
          if e.Trace.parent_id >= 0 then
            Buffer.add_string buf (Printf.sprintf ",\"p\":%d" e.Trace.parent_id);
          Buffer.add_string buf
            (Printf.sprintf ",\"f\":\"%s\",\"c\":%d" (Json.escape e.Trace.fn)
               e.Trace.core);
          if e.Trace.sid <> 0 then
            Buffer.add_string buf (Printf.sprintf ",\"s\":%d" e.Trace.sid);
          if e.Trace.dur_ps <> 0 then
            Buffer.add_string buf (Printf.sprintf ",\"d\":%d" e.Trace.dur_ps);
          if e.Trace.stall_ps <> 0 then
            Buffer.add_string buf (Printf.sprintf ",\"v\":%d" e.Trace.stall_ps);
          if e.Trace.detail <> "" then
            Buffer.add_string buf
              (Printf.sprintf ",\"x\":\"%s\"" (Json.escape e.Trace.detail));
          Buffer.add_string buf "}\n";
          Buffer.output_buffer oc buf))

type server = {
  events : Trace.event list;  (** Oldest first. *)
  truncated : bool;
  total_emitted : int;
  capacity : int;
  meta : Json.t;  (** The whole header object. *)
}

type fleet = { spans : (string * Fspan.t) list; offered_total : int }
type loaded = Server of server | Fleet of fleet

let int_member ?(default = 0) key j =
  match Json.member key j with Some (Json.Int i) -> i | _ -> default

let str_member ?(default = "") key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> default

let event_of_json j =
  let kind_name = str_member "k" j in
  match Trace.kind_of_name kind_name with
  | None -> Error (Printf.sprintf "unknown event kind %S" kind_name)
  | Some kind ->
      Ok
        {
          Trace.at_ps = int_member "a" j;
          kind;
          req_id = int_member "r" j;
          root_id = int_member "g" j;
          parent_id = int_member ~default:(-1) "p" j;
          fn = str_member "f" j;
          core = int_member "c" j;
          sid = int_member "s" j;
          dur_ps = int_member "d" j;
          stall_ps = int_member "v" j;
          detail = str_member "x" j;
        }

(* One read loop for both kinds: the header's key picks the line decoder,
   events for "jord_trace" and fleet spans for "jord_fleet_trace" (the
   file {!Ftrace.save} writes). *)
let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let parse n line =
            Result.map_error (Printf.sprintf "%s:%d: %s" path n) (Json.of_string line)
          in
          let rec body decode n acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | "" -> body decode (n + 1) acc
            | line -> (
                match
                  Result.bind (parse n line) (fun j ->
                      Result.map_error (Printf.sprintf "%s:%d: %s" path n) (decode j))
                with
                | Error _ as e -> e
                | Ok x -> body decode (n + 1) (x :: acc))
          in
          match input_line ic with
          | exception End_of_file -> Error (path ^ ": empty trace file")
          | first -> (
              match parse 1 first with
              | Error _ as e -> e
              | Ok h when Json.member "jord_trace" h <> None ->
                  Result.map
                    (fun events ->
                      Server
                        {
                          events;
                          truncated = Json.member "truncated" h = Some (Json.Bool true);
                          total_emitted = int_member "total_emitted" h;
                          capacity = int_member "capacity" h;
                          meta = h;
                        })
                    (body event_of_json 2 [])
              | Ok h when Json.member "jord_fleet_trace" h <> None ->
                  Result.map
                    (fun spans -> Fleet { spans; offered_total = int_member "offered" h })
                    (body Fspan.of_json 2 [])
              | Ok _ ->
                  Error
                    (path
                   ^ ": not a jord trace file (missing jord_trace or jord_fleet_trace \
                      header)")))

let orch_cores (l : server) =
  match Json.member "orch_cores" l.meta with
  | Some (Json.List l) ->
      List.filter_map (function Json.Int i -> Some i | _ -> None) l
  | _ -> []

let spans (l : server) = Span.build ~truncated:l.truncated (fun f -> List.iter f l.events)
