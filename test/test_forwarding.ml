(* Forwarding-path tests at the wire level: a hand-built server ring whose
   forward callbacks capture the actual [Request.t] values in flight, so we
   can assert the ArgBuf handoff protocol directly — origin buffer recorded
   on the first hop and restored on response, intermediate copies reclaimed
   on re-hops, and out/in counter balance. Complements test_cluster.ml,
   which drives the same mechanism through the [Cluster] wrapper. *)

open Jord_faas
module Time = Jord_sim.Time
module Engine = Jord_sim.Engine

(* A ring of [n] servers like Cluster's, but with an instrumented forward
   callback. Returns (servers, hops table, first-hop requests). *)
let instrumented_ring ~servers:n ~requests ~gap_ns =
  let engine = Engine.create () in
  let config = { Test_cluster.small_config with Server.forward_after = 2 } in
  let servers =
    Array.init n (fun i ->
        Server.create ~engine { config with Server.seed = config.Server.seed + i }
          Jord_exp.Exp_common.fanout_app)
  in
  let hops = Hashtbl.create 32 in
  let first_hops = ref [] in
  Array.iteri
    (fun i s ->
      Server.set_forward s
        (Some
           (fun req ->
             (* In flight the payload is serialized: the local buffer is
                already detached, and the origin one is on record. *)
             Alcotest.(check bool) "in flight: marked forwarded" true
               req.Request.forwarded;
             Alcotest.(check int) "in flight: no local argbuf" 0 req.Request.argbuf;
             Alcotest.(check bool) "in flight: origin argbuf recorded" true
               (req.Request.home_argbuf <> 0);
             let count =
               match Hashtbl.find_opt hops req.Request.id with
               | Some c -> c + 1
               | None -> 1
             in
             Hashtbl.replace hops req.Request.id count;
             if count = 1 then first_hops := req :: !first_hops;
             let target = servers.((i + 1) mod n) in
             Engine.schedule engine
               ~after:(Netmodel.one_way (Server.netmodel s))
               (fun _ -> Server.receive_forwarded target req))))
    servers;
  for i = 0 to requests - 1 do
    let s = servers.(i mod n) in
    Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. gap_ns))
      (fun _ -> Server.submit s ())
  done;
  Engine.run engine;
  (servers, hops, !first_hops)

let total f servers = Array.fold_left (fun acc s -> acc + f s) 0 servers

let test_round_trip_restores_home_argbuf () =
  let servers, _, first_hops = instrumented_ring ~servers:2 ~requests:80 ~gap_ns:900.0 in
  Alcotest.(check bool)
    (Printf.sprintf "some requests forwarded (%d)" (List.length first_hops))
    true
    (first_hops <> []);
  (* Every server drained: all forwarded children completed and responded. *)
  Array.iter
    (fun s -> Alcotest.(check int) "drained" 0 (Server.live_continuations s))
    servers;
  List.iter
    (fun req ->
      Alcotest.(check bool) "response restored the origin argbuf" true
        (req.Request.argbuf = req.Request.home_argbuf);
      Alcotest.(check bool) "origin argbuf non-null" true (req.Request.argbuf <> 0))
    first_hops

let test_out_in_balance () =
  let servers, hops, _ = instrumented_ring ~servers:2 ~requests:80 ~gap_ns:900.0 in
  let wire_hops = Hashtbl.fold (fun _ c acc -> acc + c) hops 0 in
  Alcotest.(check int) "forwarded_out counts every hop" wire_hops
    (total Server.forwarded_out servers);
  Alcotest.(check int) "received_in counts every hop" wire_hops
    (total Server.received_in servers);
  Alcotest.(check int) "out/in balance"
    (total Server.forwarded_out servers)
    (total Server.received_in servers);
  (* Per-member tallies only balance cluster-wide: sum before checking. *)
  let tally =
    Array.fold_left
      (fun acc s ->
        Jord_fault_inject.Invariant.add acc (Server.conservation s))
      Jord_fault_inject.Invariant.zero servers
  in
  Alcotest.(check (list string)) "summed invariants hold" []
    (Jord_fault_inject.Invariant.check tally)

let test_rehop_reclaims_intermediate_argbuf () =
  (* Push a 3-server ring hard enough that some request bounces through an
     intermediate server (hop count >= 2). The intermediate server
     materializes a local copy of the payload on arrival; on the re-hop
     that copy must be reclaimed, not leaked. *)
  let servers, hops, _ = instrumented_ring ~servers:3 ~requests:160 ~gap_ns:600.0 in
  let rehops = Hashtbl.fold (fun _ c acc -> if c >= 2 then acc + 1 else acc) hops 0 in
  Alcotest.(check bool)
    (Printf.sprintf "some request re-hopped (%d)" rehops)
    true (rehops > 0);
  Array.iter
    (fun s ->
      Alcotest.(check int) "drained" 0 (Server.live_continuations s);
      (* 3 bootstrap VMAs + 2 function code VMAs per server remain; every
         ArgBuf — including intermediate copies of re-hopped requests —
         was released. *)
      Alcotest.(check int) "no ArgBuf VMAs leaked" 5
        (Jord_vm.Vma_store.count (Jord_vm.Hw.store (Server.hw s))))
    servers

let suite =
  [
    Alcotest.test_case "round trip restores home_argbuf" `Quick
      test_round_trip_restores_home_argbuf;
    Alcotest.test_case "forwarded_out/received_in balance" `Quick test_out_in_balance;
    Alcotest.test_case "re-hop reclaims intermediate ArgBuf" `Quick
      test_rehop_reclaims_intermediate_argbuf;
  ]
