open Jord_util

let test_basic () =
  let s = Bitset.create 300 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 299;
  Bitset.add s 63;
  Bitset.add s 64;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 299" true (Bitset.mem s 299);
  Alcotest.(check bool) "not mem 5" false (Bitset.mem s 5);
  Bitset.remove s 63;
  Alcotest.(check int) "after remove" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 64; 299 ] (Bitset.to_list s)

let test_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  Bitset.add s 3;
  Alcotest.(check int) "double add" 1 (Bitset.cardinal s);
  Bitset.remove s 3;
  Bitset.remove s 3;
  Alcotest.(check int) "double remove" 0 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: out of range")
    (fun () -> Bitset.add s 8)

let test_copy_clear () =
  let s = Bitset.create 100 in
  Bitset.add s 42;
  let c = Bitset.copy s in
  Bitset.clear s;
  Alcotest.(check bool) "copy unaffected" true (Bitset.mem c 42);
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let prop_model =
  QCheck.Test.make ~name:"bitset agrees with a Set model"
    QCheck.(list (pair bool (int_bound 199)))
    (fun ops ->
      let module S = Set.Make (Int) in
      let s = Bitset.create 200 in
      let model = ref S.empty in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            model := S.add i !model
          end
          else begin
            Bitset.remove s i;
            model := S.remove i !model
          end)
        ops;
      Bitset.to_list s = S.elements !model
      && Bitset.cardinal s = S.cardinal !model)

(* Walking with [next_member] visits exactly [to_list], for capacities up
   to 512 and members on both sides of every 62-bit word boundary — also
   when each member is removed as it is visited. *)
let prop_next_member_walk =
  let gen =
    QCheck.Gen.(
      int_range 1 512 >>= fun cap ->
      let member =
        oneof
          [
            int_bound (cap - 1);
            map (fun w -> Int.min (cap - 1) ((w * 62) + 61)) (int_bound 8);
            map (fun w -> Int.min (cap - 1) (w * 62)) (int_bound 8);
          ]
      in
      map (fun ms -> (cap, ms)) (list_size (int_bound 120) member))
  in
  QCheck.Test.make ~name:"next_member walk equals to_list" ~count:500
    (QCheck.make
       ~print:(fun (cap, ms) -> Printf.sprintf "cap %d, %d members" cap (List.length ms))
       gen)
    (fun (cap, members) ->
      let s = Bitset.create cap in
      List.iter (Bitset.add s) members;
      let walk ~remove =
        let acc = ref [] and i = ref (Bitset.next_member s 0) in
        while !i >= 0 do
          acc := !i :: !acc;
          if remove then Bitset.remove s !i;
          i := Bitset.next_member s (!i + 1)
        done;
        List.rev !acc
      in
      let expected = Bitset.to_list s in
      walk ~remove:false = expected
      && Bitset.next_member s cap = -1
      && walk ~remove:true = expected
      && Bitset.is_empty s)

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "idempotent" `Quick test_idempotent;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "copy and clear" `Quick test_copy_clear;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_next_member_walk;
  ]
