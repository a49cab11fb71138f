open Jord_vm

let cfg = Va.default_config

let mk_vte ?(bytes = 4096) ~index () =
  let sc = Size_class.of_size bytes in
  let base = Va.encode cfg sc ~index ~offset:0 in
  Vte.create ~base ~bytes ~phys:(0x100000 + (index * bytes)) ()

(* --- plain list --- *)

let test_plain_roundtrip () =
  let t = Vma_table.create cfg in
  let vte = mk_vte ~index:5 () in
  Vma_table.insert t vte;
  let va = Vte.base vte + 100 in
  Alcotest.(check bool) "same entry" true (Vma_table.lookup t ~va == vte);
  Alcotest.(check int) "operations touch the computed VTE line"
    (Va.vte_addr_of_va cfg (Vte.base vte)) (Vma_table.entry_addr t ~va);
  Alcotest.(check bool) "remove returns it" true
    (Vma_table.remove t ~va:(Vte.base vte) == vte);
  Alcotest.(check bool) "then absent" false (Vte.covers (Vma_table.lookup t ~va) va);
  Alcotest.(check int) "empty" 0 (Vma_table.count t)

let test_plain_bound_check () =
  let t = Vma_table.create cfg in
  let sc = Size_class.of_size 4096 in
  let base = Va.encode cfg sc ~index:9 ~offset:0 in
  let vte = Vte.create ~base ~bytes:100 ~phys:0x5000 () in
  Vma_table.insert t vte;
  (* Inside the bound hits; past the bound (but within the chunk) misses. *)
  Alcotest.(check bool) "within bound" true (Vma_table.lookup t ~va:(base + 99) == vte);
  Alcotest.(check bool) "past bound" false
    (Vte.covers (Vma_table.lookup t ~va:(base + 100)) (base + 100))

let test_plain_slot_conflict () =
  let t = Vma_table.create cfg in
  Vma_table.insert t (mk_vte ~index:7 ());
  Alcotest.check_raises "occupied" (Invalid_argument "Vma_table.insert: slot occupied")
    (fun () -> Vma_table.insert t (mk_vte ~index:7 ()))

let test_plain_non_jord () =
  let t = Vma_table.create cfg in
  Alcotest.(check bool) "non-jord lookup" false (Vte.covers (Vma_table.lookup t ~va:0x1234) 0x1234);
  Alcotest.(check int) "non-jord touches nothing" (-1) (Vma_table.entry_addr t ~va:0x1234)

(* --- B-tree --- *)

let reads (fp : Footprint.t) = List.init fp.Footprint.n_reads (Array.get fp.Footprint.reads)
let writes (fp : Footprint.t) = List.init fp.Footprint.n_writes (Array.get fp.Footprint.writes)

let test_btree_basic () =
  let t = Vma_btree.create () and fp = Footprint.create () in
  let v1 = mk_vte ~index:1 () and v2 = mk_vte ~index:2 () in
  Vma_btree.insert t fp v1;
  Vma_btree.insert t fp v2;
  Alcotest.(check int) "count" 2 (Vma_btree.count t);
  Alcotest.(check bool) "floor finds v2" true (Vma_btree.lookup t fp ~va:(Vte.base v2 + 8) == v2);
  (* An address below every key misses. *)
  Alcotest.(check bool) "below all" false (Vte.covers (Vma_btree.lookup t fp ~va:1) 1);
  Alcotest.(check bool) "remove returns it" true (Vma_btree.remove t fp ~va:(Vte.base v1) == v1);
  Alcotest.(check bool) "then absent" false
    (Vte.covers (Vma_btree.remove t fp ~va:(Vte.base v1)) (Vte.base v1));
  Alcotest.(check int) "count after remove" 1 (Vma_btree.count t);
  Alcotest.(check bool) "invariants" true (Vma_btree.check_invariants t = Ok ())

let test_btree_duplicate () =
  let t = Vma_btree.create () and fp = Footprint.create () in
  Vma_btree.insert t fp (mk_vte ~index:3 ());
  Alcotest.check_raises "duplicate" (Invalid_argument "Vma_btree.insert: duplicate base")
    (fun () -> Vma_btree.insert t fp (mk_vte ~index:3 ()))

let test_btree_growth_and_footprint () =
  let t = Vma_btree.create () and fp = Footprint.create () in
  for i = 0 to 299 do
    Vma_btree.insert t fp (mk_vte ~index:i ())
  done;
  Alcotest.(check bool) "tree grew" true (Vma_btree.height t >= 2);
  Alcotest.(check bool) "splits happened" true (Vma_btree.rebalance_ops t > 0);
  Alcotest.(check bool) "invariants" true (Vma_btree.check_invariants t = Ok ());
  ignore (Vma_btree.lookup t fp ~va:(Vte.base (mk_vte ~index:150 ())) : Vte.t);
  Alcotest.(check bool) "walk touches >= 2 node reads" true (fp.Footprint.n_reads >= 2)

(* Node lines come in pairs: a node's first line, then the next one. *)
let rec node_pairs = function
  | a :: b :: rest -> b = a + 64 && (a - (1 lsl 41)) mod 256 = 0 && node_pairs rest
  | [] -> true
  | [ _ ] -> false

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* Every footprint has the shape of the operation that left it: a lookup
   reads one node per level, root to leaf, and writes nothing; a touch
   reads the same path and writes the last line it read; an insert reads
   its path and writes the leaf plus three nodes per split; a remove first
   reads the lookup path, then reads and writes whole nodes. Each
   operation replaces the last one's footprint, also after a rebalance has
   made it long. *)
let prop_btree_footprint_shape =
  QCheck.Test.make ~name:"b-tree footprints have their operation's shape" ~count:40
    QCheck.(list_of_size Gen.(0 -- 300) (pair bool (int_bound 400)))
    (fun ops ->
      let t = Vma_btree.create () and fp = Footprint.create () in
      let live = Hashtbl.create 64 in
      let ok = ref true in
      let expect cond = if not cond then ok := false in
      List.iter
        (fun (add, index) ->
          let vte = mk_vte ~index () in
          let base = Vte.base vte in
          if add && not (Hashtbl.mem live base) then begin
            let splits = Vma_btree.rebalance_ops t in
            Vma_btree.insert t fp vte;
            let splits = Vma_btree.rebalance_ops t - splits in
            Hashtbl.replace live base ();
            expect
              (node_pairs (reads fp)
              && List.length (reads fp) = 2 * Vma_btree.height t
              && node_pairs (writes fp)
              && List.length (writes fp) = 2 + (6 * splits))
          end
          else if (not add) && Hashtbl.mem live base then begin
            ignore (Vma_btree.lookup t fp ~va:base : Vte.t);
            let path = reads fp in
            ignore (Vma_btree.remove t fp ~va:base : Vte.t);
            Hashtbl.remove live base;
            expect
              (take (List.length path) (reads fp) = path
              && node_pairs (reads fp)
              && node_pairs (writes fp)
              && writes fp <> [])
          end;
          let va = base + 1 in
          ignore (Vma_btree.lookup t fp ~va : Vte.t);
          let path = reads fp in
          expect
            (List.length path = 2 * Vma_btree.height t
            && node_pairs path
            && List.length (List.sort_uniq compare path) = List.length path
            && writes fp = []);
          Vma_btree.touch t fp ~va;
          expect (reads fp = path && writes fp = [ List.nth path (List.length path - 1) ]))
        ops;
      !ok)

let prop_btree_model =
  (* Random interleavings of insert/remove agree with a Map model and keep
     the B-tree invariants. *)
  QCheck.Test.make ~name:"b-tree agrees with a Map model" ~count:60
    QCheck.(list_of_size Gen.(0 -- 200) (pair bool (int_bound 120)))
    (fun ops ->
      let module M = Map.Make (Int) in
      let t = Vma_btree.create () and fp = Footprint.create () in
      let model = ref M.empty in
      List.iter
        (fun (add, index) ->
          let vte = mk_vte ~index () in
          let base = Vte.base vte in
          if add then begin
            if not (M.mem base !model) then begin
              Vma_btree.insert t fp vte;
              model := M.add base vte !model
            end
          end
          else if M.mem base !model then begin
            if Vma_btree.remove t fp ~va:base != M.find base !model then
              failwith "model mismatch: remove";
            model := M.remove base !model
          end)
        ops;
      (match Vma_btree.check_invariants t with
      | Ok () -> ()
      | Error e -> failwith e);
      Vma_btree.count t = M.cardinal !model
      && M.for_all (fun base vte -> Vma_btree.lookup t fp ~va:(base + 1) == vte) !model)

(* --- unified store --- *)

let test_store_dispatch () =
  let plain = Vma_store.plain cfg in
  let btree = Vma_store.btree () in
  Alcotest.(check string) "plain kind" "plain-list" (Vma_store.kind plain);
  Alcotest.(check string) "btree kind" "b-tree" (Vma_store.kind btree);
  List.iter
    (fun store ->
      let vte = mk_vte ~index:11 () in
      Vma_store.insert store vte;
      Alcotest.(check bool) "found" true (Vma_store.lookup store ~va:(Vte.base vte) == vte);
      Alcotest.(check int) "count" 1 (Vma_store.count store))
    [ plain; btree ];
  Alcotest.(check bool) "plain search is cheaper" true
    (Vma_store.search_instrs plain < Vma_store.search_instrs btree)

(* Recording keeps every address in order however long the operation,
   and [clear] starts the next operation afresh: a list model of random
   reads, writes and, one time in twenty, clears, so that the buffers
   grow several times between clears. *)
let prop_footprint_model =
  QCheck.Test.make ~name:"footprint buffers match a list model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (pair (int_bound 19) (int_bound 1000)))
    (fun ops ->
      let fp = Footprint.create () in
      let r = ref [] and w = ref [] in
      List.iter
        (fun (op, addr) ->
          if op < 10 then begin
            Footprint.read fp addr;
            r := addr :: !r
          end
          else if op < 19 then begin
            Footprint.write fp addr;
            w := addr :: !w
          end
          else begin
            Footprint.clear fp;
            r := [];
            w := []
          end)
        ops;
      reads fp = List.rev !r && writes fp = List.rev !w)

let footprint store =
  let fp = Vma_store.footprint store in
  (reads fp, writes fp)

(* A plain-list operation touches exactly the VTE line computed from the
   VA: a lookup reads it, every update writes it, and a non-Jord address
   touches nothing. Each operation replaces the previous footprint. *)
let test_plain_store_footprint () =
  let store = Vma_store.plain cfg in
  let vte = mk_vte ~index:5 () in
  let base = Vte.base vte in
  let line = Va.vte_addr_of_va cfg base in
  let check what (reads, writes) =
    Alcotest.(check (pair (list int) (list int))) what (reads, writes) (footprint store)
  in
  Vma_store.insert store vte;
  check "insert writes the line" ([], [ line ]);
  ignore (Vma_store.lookup store ~va:(base + 100) : Vte.t);
  check "lookup reads the line" ([ line ], []);
  Vma_store.touch store ~va:base;
  check "touch writes the line" ([], [ line ]);
  ignore (Vma_store.lookup store ~va:0x1234 : Vte.t);
  check "non-jord lookup touches nothing" ([], []);
  ignore (Vma_store.remove store ~va:base : Vte.t);
  check "remove writes the line" ([], [ line ])

(* A B-tree store leaves the tree's own footprint: the same node addresses,
   in the same order, as a bare tree driven through the same operations. *)
let test_btree_store_footprint () =
  let store = Vma_store.btree () in
  let twin = Vma_btree.create () and fp = Footprint.create () in
  let check what =
    Alcotest.(check (pair (list int) (list int))) what (reads fp, writes fp) (footprint store)
  in
  for i = 0 to 199 do
    let vte = mk_vte ~index:(i * 7 mod 200) () in
    Vma_store.insert store vte;
    Vma_btree.insert twin fp vte;
    check "insert"
  done;
  for i = 0 to 99 do
    let va = Vte.base (mk_vte ~index:(i * 11 mod 200) ()) in
    ignore (Vma_store.lookup store ~va : Vte.t);
    ignore (Vma_btree.lookup twin fp ~va : Vte.t);
    check "lookup";
    Vma_store.touch store ~va;
    Vma_btree.touch twin fp ~va;
    check "touch";
    ignore (Vma_store.remove store ~va : Vte.t);
    ignore (Vma_btree.remove twin fp ~va : Vte.t);
    check "remove"
  done

let suite =
  [
    Alcotest.test_case "plain roundtrip" `Quick test_plain_roundtrip;
    Alcotest.test_case "plain bound check" `Quick test_plain_bound_check;
    Alcotest.test_case "plain slot conflict" `Quick test_plain_slot_conflict;
    Alcotest.test_case "plain non-jord" `Quick test_plain_non_jord;
    Alcotest.test_case "btree basic" `Quick test_btree_basic;
    Alcotest.test_case "btree duplicate" `Quick test_btree_duplicate;
    Alcotest.test_case "btree growth/footprint" `Quick test_btree_growth_and_footprint;
    QCheck_alcotest.to_alcotest prop_btree_model;
    QCheck_alcotest.to_alcotest prop_btree_footprint_shape;
    QCheck_alcotest.to_alcotest prop_footprint_model;
    Alcotest.test_case "unified store" `Quick test_store_dispatch;
    Alcotest.test_case "plain store footprint" `Quick test_plain_store_footprint;
    Alcotest.test_case "btree store footprint" `Quick test_btree_store_footprint;
  ]
