(* Property tests of the event queue: pop order must be a stable sort of
   the push order whatever the heap and the lanes do internally, handles
   must survive arbitrary cancel/reschedule interleavings, and the
   structural invariants must hold after every operation. *)

module Eq = Jord_sim.Event_queue
module Engine = Jord_sim.Engine
module Time = Jord_sim.Time

(* --- Reference model: a queue is just the list of its pending events in
   push order; popping takes the least full key. --- *)

type op =
  | Push of int (* time *)
  | Push_arrival of int (* time; no handle *)
  | Push_hop of int * int * int (* time, sched, src; no handle *)
  | Pop
  | Cancel of int (* index into the handles issued so far *)
  | Reschedule of int * int (* handle index, new time *)

(* A hop is scheduled at a small clock and fires one of two wire delays
   later, from one of four sources: in push order its key sometimes sorts
   after the lane's tail (appended) and sometimes before (heap). *)
let gen_hop =
  QCheck.Gen.(
    map3
      (fun clock delay src -> Push_hop (clock + delay, clock, src))
      (int_bound 40) (oneofl [ 3; 10 ]) (int_bound 3))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Push t) (int_bound 50));
        (3, map (fun t -> Push_arrival t) (int_bound 50));
        (4, gen_hop);
        (4, return Pop);
        (2, map (fun i -> Cancel i) (int_bound 200));
        (2, map2 (fun i t -> Reschedule (i, t)) (int_bound 200) (int_bound 50));
      ])

let print_op = function
  | Push t -> Printf.sprintf "push %d" t
  | Push_arrival t -> Printf.sprintf "arrival %d" t
  | Push_hop (t, sched, src) -> Printf.sprintf "hop %d (sched %d, src %d)" t sched src
  | Pop -> "pop"
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Reschedule (i, t) -> Printf.sprintf "resched #%d @%d" i t

let arb_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_op l))
    QCheck.Gen.(list_size (int_bound 200) gen_op)

(* Run the op list against both the real queue and a model list of
   [((time, sched, src, seq), id)] kept in logical-push order. An arrival's
   sched is [min_int]; [push] is sched 0 from source 0; [seq] counts every
   push. The model's pop takes the least key. Returns false on the first
   divergence. *)
let agrees_with_model ops =
  let q = Eq.create () in
  let model = ref [] in
  let handles = ref [||] in
  let next_id = ref 0 in
  let next_seq = ref 0 in
  let add ~time ~sched ~src id =
    model := !model @ [ ((time, sched, src, !next_seq), id) ];
    incr next_seq
  in
  let model_pop () =
    match
      List.fold_left
        (fun best ((k, _) as e) ->
          match best with None -> Some e | Some (bk, _) -> if k < bk then Some e else best)
        None !model
    with
    | None -> None
    | Some ((t, _, _, _), id) ->
        model := List.filter (fun (_, j) -> j <> id) !model;
        Some (t, id)
  in
  let live id = List.exists (fun (_, j) -> j = id) !model in
  let ok = ref true in
  List.iter
    (fun op ->
      if !ok then begin
        (match op with
        | Push t ->
            let h = Eq.push q ~time:t !next_id in
            add ~time:t ~sched:0 ~src:0 !next_id;
            handles := Array.append !handles [| (h, !next_id) |];
            incr next_id
        | Push_arrival t ->
            Eq.push_arrival q ~time:t !next_id;
            add ~time:t ~sched:min_int ~src:0 !next_id;
            incr next_id
        | Push_hop (t, sched, src) ->
            Eq.push_hop q ~time:t ~sched ~src !next_id;
            add ~time:t ~sched ~src !next_id;
            incr next_id
        | Pop -> ok := !ok && Eq.pop q = model_pop ()
        | Cancel i ->
            if Array.length !handles > 0 then begin
              let h, id = !handles.(i mod Array.length !handles) in
              let was_live = live id in
              let r = Eq.cancel q h in
              ok := !ok && r = was_live;
              if r then model := List.filter (fun (_, j) -> j <> id) !model
            end
        | Reschedule (i, t) ->
            if Array.length !handles > 0 then begin
              let h, id = !handles.(i mod Array.length !handles) in
              let was_live = live id in
              let r = Eq.reschedule q h ~time:t in
              ok := !ok && r = was_live;
              if r then begin
                (* A reschedule re-keys the event as a fresh push would:
                   among equal new timestamps it fires after every queued
                   push and every arrival. *)
                model := List.filter (fun (_, j) -> j <> id) !model;
                add ~time:t ~sched:0 ~src:0 id
              end
            end);
        ok := !ok && Eq.invariants_ok q && Eq.length q = List.length !model
      end)
    ops;
  (* Drain both: remaining pops must agree too. *)
  while !ok && not (Eq.is_empty q) do
    ok := Eq.pop q = model_pop ()
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

(* --- The lanes: fallbacks, cross-store ties, clear, allocation --- *)

let pop_all q =
  let rec go acc = match Eq.pop q with None -> List.rev acc | Some (_, v) -> go (v :: acc) in
  go []

let test_hop_fallback_pops_first () =
  let q = Eq.create () in
  Eq.push_hop q ~time:10 ~sched:5 ~src:2 "src 2";
  (* Same instant, same sched, lower source: its key sorts before the
     lane's tail, so it goes to the heap — and still fires first. *)
  Eq.push_hop q ~time:10 ~sched:5 ~src:1 "src 1";
  Eq.push_hop q ~time:12 ~sched:5 ~src:0 "later";
  Alcotest.(check bool) "invariants" true (Eq.invariants_ok q);
  Alcotest.(check int) "length counts both stores" 3 (Eq.length q);
  Alcotest.(check (list string)) "key order" [ "src 1"; "src 2"; "later" ] (pop_all q)

let test_one_picosecond_three_stores () =
  let q = Eq.create () in
  ignore (Eq.push_from q ~time:50 ~sched:20 ~src:0 "heap" : Eq.handle);
  Eq.push_hop q ~time:50 ~sched:10 ~src:2 "hop sched 10";
  Eq.push_hop q ~time:50 ~sched:20 ~src:1 "hop sched 20";
  Eq.push_arrival q ~time:50 "arrival";
  Alcotest.(check (option int)) "peek" (Some 50) (Eq.peek_time q);
  (* The arrival goes first; the rest by (sched, src, seq). *)
  Alcotest.(check string) "arrival" "arrival" (Eq.pop_exn q);
  Alcotest.(check int) "popped time" 50 (Eq.popped_time q);
  Alcotest.(check int) "arrival source" 0 (Eq.popped_src q);
  Alcotest.(check string) "sched 10" "hop sched 10" (Eq.pop_exn q);
  Alcotest.(check int) "hop source" 2 (Eq.popped_src q);
  Alcotest.(check (list string)) "sched 20: src 0 then src 1"
    [ "heap"; "hop sched 20" ] (pop_all q)

let test_clear_empties_lanes () =
  let q = Eq.create () in
  Eq.push_arrival q ~time:3 "a";
  Eq.push_hop q ~time:4 ~sched:1 ~src:0 "h";
  Eq.push_hop q ~time:2 ~sched:1 ~src:0 "h (heap)";
  ignore (Eq.push q ~time:1 "p" : Eq.handle);
  Eq.clear q;
  Alcotest.(check int) "length" 0 (Eq.length q);
  Alcotest.(check bool) "empty" true (Eq.is_empty q);
  Alcotest.(check (option int)) "nothing to peek" None (Eq.peek_time q);
  Alcotest.(check bool) "invariants" true (Eq.invariants_ok q);
  (* The cleared queue takes new events in all three stores. *)
  Eq.push_hop q ~time:9 ~sched:1 ~src:0 "h2";
  Eq.push_arrival q ~time:9 "a2";
  Alcotest.(check (list string)) "reuse" [ "a2"; "h2" ] (pop_all q)

let test_lanes_allocate_nothing () =
  (* Warm lanes: a push that appends and a pop from the head allocate no
     minor-heap words. *)
  let q = Eq.create () in
  Eq.push_hop q ~time:0 ~sched:0 ~src:0 0;
  Eq.push_arrival q ~time:0 0;
  ignore (Eq.pop_exn q + Eq.pop_exn q : int);
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    Eq.push_hop q ~time:(i + 7) ~sched:i ~src:(i land 3) i;
    acc := !acc + Eq.pop_exn q
  done;
  for i = 1 to 10_000 do
    Eq.push_arrival q ~time:i i;
    acc := !acc + Eq.pop_exn q
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "minor words for 2 x 10k lane push/pop pairs (sum %d)" !acc)
    0.0 words;
  Alcotest.(check bool) "drained" true (Eq.is_empty q)

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
    Alcotest.test_case "out-of-order hop falls back and pops first" `Quick
      test_hop_fallback_pops_first;
    Alcotest.test_case "arrival, hop and heap event on one picosecond" `Quick
      test_one_picosecond_three_stores;
    Alcotest.test_case "clear empties both lanes" `Quick test_clear_empties_lanes;
    Alcotest.test_case "warm lane push/pop allocates nothing" `Quick
      test_lanes_allocate_nothing;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine reschedule" `Quick test_engine_reschedule;
    Alcotest.test_case "run ~until advances now" `Quick test_run_until_advances_now;
  ]
