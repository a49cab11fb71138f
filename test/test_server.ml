open Jord_faas
module Time = Jord_sim.Time

(* A small deterministic app exercising sync, async and nested chains. *)
let tiny_app =
  let open Model in
  let leaf name ns =
    { name; make_phases = (fun _ -> [ compute ns ]); state_bytes = 1024; code_bytes = 1024 }
  in
  let mid =
    {
      name = "mid";
      make_phases = (fun _ -> [ compute 150.0; invoke "leafB"; compute 50.0 ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  let entry =
    {
      name = "entry";
      make_phases =
        (fun _ ->
          [
            compute 200.0;
            invoke ~mode:Async "leafA";
            invoke "mid";
            wait;
            compute 100.0;
          ]);
      state_bytes = 1024;
      code_bytes = 1024;
    }
  in
  {
    app_name = "tiny";
    fns = [ entry; mid; leaf "leafA" 120.0; leaf "leafB" 80.0 ];
    entries = [ ("entry", 1.0) ];
  }

let small_config variant =
  {
    Server.default_config with
    Server.variant;
    machine = Jord_arch.Config.with_cores Jord_arch.Config.default 8;
    orchestrators = 1;
  }

let run_n ?(variant = Variant.Jord) n =
  let server = Server.create (small_config variant) tiny_app in
  let roots = ref [] in
  Server.on_root_complete server (fun r -> roots := r :: !roots);
  let engine = Server.engine server in
  for i = 0 to n - 1 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 400.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  (server, List.rev !roots)

let test_all_requests_complete () =
  let server, roots = run_n 50 in
  Alcotest.(check int) "all complete" 50 (List.length roots);
  Alcotest.(check int) "server count agrees" 50 (Server.completed_roots server);
  Alcotest.(check int) "no stuck continuations" 0 (Server.live_continuations server);
  Alcotest.(check int) "nothing dropped" 0 (Server.dropped_requests server);
  Alcotest.(check (list string)) "conservation invariants hold" []
    (Server.check_invariants server)

let test_tree_accounting () =
  let _, roots = run_n 20 in
  List.iter
    (fun r ->
      let open Request in
      Alcotest.(check int) "4 invocations per tree" 4 r.invocations;
      (* Total compute: 350 (entry) + 120 + 150 + 50 (mid) + 80 = 700 ns. *)
      Alcotest.(check (float 1.0)) "exec sums the tree" 700.0 r.exec_ns;
      Alcotest.(check bool) "isolation charged" true (r.isolation_ns > 0.0);
      Alcotest.(check bool) "dispatch charged" true (r.dispatch_ns > 0.0);
      Alcotest.(check bool) "latency covers exec" true (latency_ns r >= 700.0);
      Alcotest.(check bool) "finished" true r.finished)
    roots

let test_deterministic () =
  let _, roots1 = run_n 30 in
  let _, roots2 = run_n 30 in
  List.iter2
    (fun a b ->
      Alcotest.(check (float 1e-9)) "identical latencies" (Request.latency_ns a)
        (Request.latency_ns b))
    roots1 roots2

let test_ni_has_less_isolation () =
  let _, jord = run_n ~variant:Variant.Jord 30 in
  let _, ni = run_n ~variant:Variant.Jord_ni 30 in
  let iso rs = List.fold_left (fun acc r -> acc +. r.Request.isolation_ns) 0.0 rs in
  Alcotest.(check bool) "NI isolation still pays memory mgmt" true (iso ni > 0.0);
  Alcotest.(check bool) "NI cheaper isolation" true (iso ni < iso jord *. 0.75);
  let lat rs = List.fold_left (fun acc r -> acc +. Request.latency_ns r) 0.0 rs in
  Alcotest.(check bool) "NI faster end to end" true (lat ni < lat jord)

let test_nightcore_slower () =
  let _, jord = run_n ~variant:Variant.Jord 30 in
  let _, nc = run_n ~variant:Variant.Nightcore 30 in
  let lat rs = List.fold_left (fun acc r -> acc +. Request.latency_ns r) 0.0 rs in
  Alcotest.(check bool) "NightCore much slower" true (lat nc > 2.0 *. lat jord)

let test_bt_slower_than_plain () =
  let _, jord = run_n ~variant:Variant.Jord 30 in
  let _, bt = run_n ~variant:Variant.Jord_bt 30 in
  let iso rs = List.fold_left (fun acc r -> acc +. r.Request.isolation_ns) 0.0 rs in
  Alcotest.(check bool) "B-tree isolation dearer" true (iso bt > iso jord)

let test_no_pd_or_chunk_leak () =
  let server, _ = run_n 40 in
  let priv = Server.privlib server in
  (* Only the bootstrap VMAs, code VMAs and the free-list floors remain. *)
  Alcotest.(check int) "no PDs leaked" 0
    (Jord_privlib.Pd.live_count (Jord_privlib.Privlib.pds priv));
  let store = Jord_vm.Hw.store (Server.hw server) in
  (* 3 bootstrap + 4 function code VMAs. *)
  Alcotest.(check int) "no VMAs leaked" 7 (Jord_vm.Vma_store.count store);
  Alcotest.(check (list string)) "invariant checker agrees" []
    (Server.check_invariants server)

let test_policy_ablation_still_works () =
  List.iter
    (fun policy ->
      let config = { (small_config Variant.Jord) with Server.policy } in
      let server = Server.create config tiny_app in
      let count = ref 0 in
      Server.on_root_complete server (fun _ -> incr count);
      for i = 0 to 19 do
        Jord_sim.Engine.schedule_at (Server.engine server)
          ~time:(Time.of_ns (float_of_int i *. 500.0))
          (fun _ -> Server.submit server ())
      done;
      Server.run server;
      Alcotest.(check int)
        (Policy.name policy ^ " completes everything")
        20 !count)
    [ Policy.Jbsq; Policy.Random; Policy.Round_robin ]

let test_overload_sheds () =
  (* Offered load far beyond capacity: the cap bounds the queue and the
     server still drains what it accepted. *)
  let server = Server.create (small_config Variant.Jord) tiny_app in
  let count = ref 0 in
  Server.on_root_complete server (fun _ -> incr count);
  let engine = Server.engine server in
  for i = 0 to 99_999 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 1.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run ~until:(Time.of_us 20_000.0) server;
  Alcotest.(check bool) "some dropped" true (Server.dropped_requests server > 0);
  Alcotest.(check bool) "some completed" true (!count > 0);
  (* Conservation must hold even at a mid-run cut-off: accepted-but-
     unfinished work is exactly the in_flight term. *)
  Alcotest.(check (list string)) "conservation holds under overload" []
    (Server.check_invariants server)

let test_figure4_op_counts () =
  (* Spec-level check of the Figure-4 flow: a root with one sync child must
     cost exactly the paper's operation sequence. Per request:
     PD ops: 2 cget + 2 ccall + 1 cexit + 1 center + 2 creturn + 2 cput = 10.
     VMA ops: 4 mmap (root ArgBuf, 2 stacks/heaps, child ArgBuf)
            + 4 munmap + 7 pmove + 3 pcopy (2 code grants + 1 reap)
            + 2 mprotect (code revokes) = 20. *)
  let app =
    let open Model in
    let leaf =
      { name = "leaf"; make_phases = (fun _ -> [ compute 100.0 ]); state_bytes = 1024; code_bytes = 1024 }
    in
    let entry =
      { name = "entry"; make_phases = (fun _ -> [ compute 100.0; invoke "leaf"; compute 50.0 ]); state_bytes = 1024; code_bytes = 1024 }
    in
    { app_name = "two"; fns = [ entry; leaf ]; entries = [ ("entry", 1.0) ] }
  in
  let server = Server.create (small_config Variant.Jord) app in
  let priv = Server.privlib server in
  Jord_privlib.Privlib.reset_accounting priv;
  let n = 5 in
  let engine = Server.engine server in
  for i = 0 to n - 1 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 5000.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  Alcotest.(check int) "PD ops per request" (10 * n)
    (Jord_privlib.Privlib.call_count priv Jord_privlib.Privlib.Pd_mgmt);
  Alcotest.(check int) "VMA ops per request" (20 * n)
    (Jord_privlib.Privlib.call_count priv Jord_privlib.Privlib.Vma_mgmt)

let test_worst_case_probes () =
  let server, _ = run_n 5 in
  Alcotest.(check bool) "dispatch probe positive" true
    (Server.worst_case_dispatch_ns server > 0.0);
  Alcotest.(check bool) "shootdown probe positive" true
    (Server.worst_case_shootdown_ns server > 0.0)

(* Each orchestrator owns a block of cores / orchestrators cores. At 7 cores
   and 4 orchestrators three blocks hold one core, the orchestrator's own,
   so the first dispatch there would find no executor to pick. *)
let test_every_orchestrator_has_an_executor () =
  let config cores orchestrators =
    {
      Server.default_config with
      Server.machine = Jord_arch.Config.with_cores Jord_arch.Config.default cores;
      orchestrators;
    }
  in
  (match Server.create (config 7 4) tiny_app with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "7 cores / 4 orchestrators accepted");
  let server = Server.create (config 8 4) tiny_app in
  Alcotest.(check int) "one executor per orchestrator" 4 (Server.executor_count server);
  let engine = Server.engine server in
  for i = 0 to 15 do
    Jord_sim.Engine.schedule_at engine
      ~time:(Time.of_ns (float_of_int i *. 400.0))
      (fun _ -> Server.submit server ())
  done;
  Server.run server;
  Alcotest.(check int) "every request completes" 16 (Server.completed_roots server)

let suite =
  [
    Alcotest.test_case "all requests complete" `Quick test_all_requests_complete;
    Alcotest.test_case "tree accounting" `Quick test_tree_accounting;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "NI cheaper than Jord" `Quick test_ni_has_less_isolation;
    Alcotest.test_case "NightCore slower" `Quick test_nightcore_slower;
    Alcotest.test_case "B-tree dearer" `Quick test_bt_slower_than_plain;
    Alcotest.test_case "no PD/VMA leak" `Quick test_no_pd_or_chunk_leak;
    Alcotest.test_case "policy ablation" `Quick test_policy_ablation_still_works;
    Alcotest.test_case "overload sheds load" `Slow test_overload_sheds;
    Alcotest.test_case "figure-4 op counts" `Quick test_figure4_op_counts;
    Alcotest.test_case "worst-case probes" `Quick test_worst_case_probes;
    Alcotest.test_case "every orchestrator has an executor" `Quick
      test_every_orchestrator_has_an_executor;
  ]
