(* Property tests of the indexed-heap event queue: pop order must be a
   stable sort of the push order whatever the heap does internally, handles
   must survive arbitrary cancel/reschedule interleavings, and the heap's
   structural invariants must hold after every operation. *)

module Eq = Jord_sim.Event_queue
module Engine = Jord_sim.Engine
module Time = Jord_sim.Time

(* --- Reference model: a queue is just the list of its pending events in
   push order; popping takes the earliest (stable on ties, arrival lane
   first). --- *)

type op =
  | Push of int (* time *)
  | Push_arrival of int (* time; no handle *)
  | Pop
  | Cancel of int (* index into the handles issued so far *)
  | Reschedule of int * int (* handle index, new time *)

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Push t) (int_bound 50));
        (3, map (fun t -> Push_arrival t) (int_bound 50));
        (3, return Pop);
        (2, map (fun i -> Cancel i) (int_bound 200));
        (2, map2 (fun i t -> Reschedule (i, t)) (int_bound 200) (int_bound 50));
      ])

let print_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Push_arrival t -> Printf.sprintf "arrival %d" t
  | Pop -> "pop"
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Reschedule (i, t) -> Printf.sprintf "resched #%d @%d" i t

let arb_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_op l))
    QCheck.Gen.(list_size (int_bound 200) gen_op)

(* Run the op list against both the real queue and a model list of
   [(time, lane, seq, id)] kept in logical-push order, lane 0 being the
   arrival lane; the model's pop takes the min (time, lane, seq). Returns
   false on the first divergence. *)
let agrees_with_model ops =
  let q = Eq.create () in
  let model = ref [] in
  let handles = ref [||] in
  let next_id = ref 0 in
  let next_seq = ref 0 in
  let record h id =
    handles := Array.append !handles [| (h, id) |];
    incr next_id
  in
  let model_pop () =
    match
      List.fold_left
        (fun best ((t, l, s, _) as e) ->
          match best with
          | None -> Some e
          | Some (bt, bl, bs, _) -> if (t, l, s) < (bt, bl, bs) then Some e else best)
        None !model
    with
    | None -> None
    | Some ((_, _, _, id) as e) ->
        model := List.filter (fun (_, _, _, i) -> i <> id) !model;
        Some e
  in
  let live id = List.exists (fun (_, _, _, j) -> j = id) !model in
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then begin
        (match op with
        | Push t ->
            let h = Eq.push q ~time:t !next_id in
            model := !model @ [ (t, 1, !next_seq, !next_id) ];
            incr next_seq;
            record h !next_id
        | Push_arrival t ->
            (* Arrivals share the id space but take their own seq counter,
               which is the id here: ids only grow, as the lane's seqs do. *)
            Eq.push_arrival q ~time:t !next_id;
            model := !model @ [ (t, 0, !next_id, !next_id) ];
            incr next_id
        | Pop -> (
            match (Eq.pop q, model_pop ()) with
            | None, None -> ()
            | Some (t, id), Some (mt, _, _, mid) -> ok := !ok && t = mt && id = mid
            | _ -> ok := false)
        | Cancel i ->
            if Array.length !handles > 0 then begin
              let h, id = !handles.(i mod Array.length !handles) in
              let was_live = live id in
              let r = Eq.cancel q h in
              ok := !ok && r = was_live;
              if r then model := List.filter (fun (_, _, _, j) -> j <> id) !model
            end
        | Reschedule (i, t) ->
            if Array.length !handles > 0 then begin
              let h, id = !handles.(i mod Array.length !handles) in
              let was_live = live id in
              let r = Eq.reschedule q h ~time:t in
              ok := !ok && r = was_live;
              if r then begin
                (* A reschedule re-sequences in the normal lane: among equal
                   new timestamps it fires after every queued normal event
                   and after every arrival, as a fresh push would. *)
                model := List.filter (fun (_, _, _, j) -> j <> id) !model;
                model := !model @ [ (t, 1, !next_seq, id) ];
                incr next_seq
              end
            end);
        ok := !ok && Eq.invariants_ok q && Eq.length q = List.length !model
      end)
    ops;
  (* Drain both: remaining pops must agree too. *)
  while !ok && not (Eq.is_empty q) do
    match (Eq.pop q, model_pop ()) with
    | Some (t, id), Some (mt, _, _, mid) -> ok := !ok && t = mt && id = mid
    | _ -> ok := false
  done;
  !ok && !model = []

let prop_model =
  QCheck.Test.make ~name:"queue = stable-sorted model under push/pop/cancel/resched"
    ~count:200 arb_ops agrees_with_model

(* FIFO stability: events pushed at one timestamp pop in push order. *)
let prop_fifo =
  QCheck.Test.make ~name:"same-timestamp events pop in push order" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 5))
    (fun times ->
      let q = Eq.create () in
      List.iteri (fun i t -> ignore (Eq.push q ~time:t i : Eq.handle)) times;
      (* Stable sort of (time, push index) is the required pop order. *)
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      in
      let popped = ref [] in
      let rec drain () =
        match Eq.pop q with
        | None -> ()
        | Some (t, i) ->
            popped := (t, i) :: !popped;
            drain ()
      in
      drain ();
      List.rev !popped = expected)

(* Handles stay valid across unrelated operations; a popped or cancelled
   handle is stale forever even after its slot is recycled. *)
let test_handle_staleness () =
  let q = Eq.create () in
  let h1 = Eq.push q ~time:5 "a" in
  let h2 = Eq.push q ~time:3 "b" in
  Alcotest.(check bool) "h1 pending" true (Eq.holds q h1);
  Alcotest.(check (option int)) "time_of h1" (Some 5) (Eq.time_of q h1);
  Alcotest.(check bool) "cancel h2" true (Eq.cancel q h2);
  Alcotest.(check bool) "h2 stale" false (Eq.holds q h2);
  Alcotest.(check bool) "double cancel fails" false (Eq.cancel q h2);
  (* The slot h2 used gets recycled: the old handle must still be stale. *)
  let h3 = Eq.push q ~time:1 "c" in
  Alcotest.(check bool) "h2 still stale after reuse" false (Eq.cancel q h2);
  Alcotest.(check bool) "h3 live" true (Eq.holds q h3);
  Alcotest.(check (option (pair int string))) "pop c" (Some (1, "c")) (Eq.pop q);
  Alcotest.(check bool) "h3 stale after pop" false (Eq.holds q h3);
  Alcotest.(check bool) "none_handle never live" false (Eq.holds q Eq.none_handle);
  Alcotest.(check bool) "invariants" true (Eq.invariants_ok q)

let test_reschedule_resequences () =
  let q = Eq.create () in
  let h = Eq.push q ~time:10 "moved" in
  ignore (Eq.push q ~time:10 "stays" : Eq.handle);
  (* Rescheduling to the same time must re-sequence "moved" behind
     "stays", exactly as a fresh push would land. *)
  Alcotest.(check bool) "resched ok" true (Eq.reschedule q h ~time:10);
  Alcotest.(check (option (pair int string))) "stays first" (Some (10, "stays")) (Eq.pop q);
  Alcotest.(check (option (pair int string))) "moved second" (Some (10, "moved")) (Eq.pop q)

(* --- Engine-level: cancel/reschedule and run ~until semantics --- *)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref [] in
  let mark name _ = fired := name :: !fired in
  let h1 = Engine.schedule_handle e ~after:10 (mark "a") in
  let h2 = Engine.schedule_handle e ~after:20 (mark "b") in
  ignore (Engine.schedule_handle e ~after:30 (mark "c") : Engine.handle);
  Alcotest.(check bool) "cancel b" true (Engine.cancel e h2);
  Alcotest.(check bool) "b not pending" false (Engine.pending_handle e h2);
  Alcotest.(check bool) "a pending" true (Engine.pending_handle e h1);
  Engine.run e;
  Alcotest.(check (list string)) "only a, c fired" [ "a"; "c" ] (List.rev !fired);
  Alcotest.(check int) "cancelled counter" 1 (Engine.cancelled e);
  Alcotest.(check bool) "stale cancel" false (Engine.cancel e h1)

let test_engine_reschedule () =
  let e = Engine.create () in
  let order = ref [] in
  let mark name eng = order := (name, Engine.now eng) :: !order in
  let h = Engine.schedule_handle e ~after:100 (mark "moved") in
  ignore (Engine.schedule_handle e ~after:50 (mark "fixed") : Engine.handle);
  (* Pull the far event before the near one. *)
  Alcotest.(check bool) "resched ok" true (Engine.reschedule e h ~time:25);
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "moved fires first at its new time"
    [ ("moved", 25); ("fixed", 50) ]
    (List.rev !order)

let test_run_until_advances_now () =
  (* The satellite fix: a drained run must still advance [now] to the
     limit, so busy fractions are computed against the true horizon. *)
  let e = Engine.create () in
  Engine.schedule e ~after:10 (fun _ -> ());
  Engine.run ~until:1000 e;
  Alcotest.(check int) "now = limit after drain" 1000 (Engine.now e);
  (* Events beyond the limit stay queued and now stops at the limit. *)
  let e2 = Engine.create () in
  Engine.schedule e2 ~after:500 (fun _ -> ());
  Engine.schedule e2 ~after:2000 (fun _ -> ());
  Engine.run ~until:1000 e2;
  Alcotest.(check int) "now = limit with events beyond" 1000 (Engine.now e2);
  Alcotest.(check int) "late event still pending" 1 (Engine.pending e2);
  (* A later run without a limit picks the remaining event up. *)
  Engine.run e2;
  Alcotest.(check int) "resumes past the limit" 2000 (Engine.now e2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_fifo;
    Alcotest.test_case "handle staleness + slot reuse" `Quick test_handle_staleness;
    Alcotest.test_case "reschedule re-sequences ties" `Quick test_reschedule_resequences;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine reschedule" `Quick test_engine_reschedule;
    Alcotest.test_case "run ~until advances now" `Quick test_run_until_advances_now;
  ]
