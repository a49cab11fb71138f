open Jord_util

(* Sets in slices of one array, as the directory and the VTD keep them:
   [n] words at [base], with a neighbouring set on either side that no
   operation may touch. *)
type set = { words : int array; base : int; n : int; cap : int }

let create cap =
  let n = Bitset.words_for cap in
  { words = Array.make ((3 * n) + 1) 0; base = n + 1; n; cap }

let add s i = Bitset.add s.words s.base i
let remove s i = Bitset.remove s.words s.base i
let is_empty s = Bitset.is_empty s.words s.base s.n
let next s i = Bitset.next_member s.words s.base s.n i
let mem s i = next s i = i

let to_list s =
  let acc = ref [] and i = ref (next s 0) in
  while !i >= 0 do
    acc := !i :: !acc;
    i := next s (!i + 1)
  done;
  List.rev !acc

let cardinal s = List.length (to_list s)

(* The words outside the set's slice are all zero. *)
let neighbours_clear s =
  let ok = ref true in
  Array.iteri
    (fun w word -> if (w < s.base || w >= s.base + s.n) && word <> 0 then ok := false)
    s.words;
  !ok

let test_basic () =
  let s = create 300 in
  Alcotest.(check int) "words" 5 s.n;
  Alcotest.(check bool) "empty" true (is_empty s);
  add s 0;
  add s 299;
  add s 63;
  add s 64;
  Alcotest.(check int) "cardinal" 4 (cardinal s);
  Alcotest.(check bool) "mem 299" true (mem s 299);
  Alcotest.(check bool) "not mem 5" false (mem s 5);
  remove s 63;
  Alcotest.(check int) "after remove" 3 (cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 64; 299 ] (to_list s);
  Alcotest.(check bool) "neighbours untouched" true (neighbours_clear s)

let test_idempotent () =
  let s = create 10 in
  add s 3;
  add s 3;
  Alcotest.(check int) "double add" 1 (cardinal s);
  remove s 3;
  remove s 3;
  Alcotest.(check int) "double remove" 0 (cardinal s)

(* A negative member, a member whose word lies past the array and an
   empty capacity are refused; members are range-checked against a
   set's own capacity by its owner. *)
let test_bounds () =
  let words = Array.make 2 0 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: out of range") (fun () ->
      Bitset.add words 0 (-1));
  Alcotest.check_raises "negative remove" (Invalid_argument "Bitset: out of range")
    (fun () -> Bitset.remove words 0 (-1));
  Alcotest.check_raises "past the array" (Invalid_argument "index out of bounds") (fun () ->
      Bitset.add words 1 62);
  Alcotest.check_raises "no capacity" (Invalid_argument "Bitset.words_for") (fun () ->
      ignore (Bitset.words_for 0 : int));
  Alcotest.(check int) "62 members fit one word" 1 (Bitset.words_for 62);
  Alcotest.(check int) "63 need two" 2 (Bitset.words_for 63)

let test_copy_clear () =
  let s = create 100 in
  add s 42;
  let c = { s with words = Array.copy s.words } in
  Bitset.clear s.words s.base s.n;
  Alcotest.(check bool) "copy unaffected" true (mem c 42);
  Alcotest.(check bool) "cleared" true (is_empty s)

let prop_model =
  QCheck.Test.make ~name:"bitset agrees with a Set model"
    QCheck.(list (pair bool (int_bound 199)))
    (fun ops ->
      let module S = Set.Make (Int) in
      let s = create 200 in
      let model = ref S.empty in
      List.iter
        (fun (add_it, i) ->
          if add_it then begin
            add s i;
            model := S.add i !model
          end
          else begin
            remove s i;
            model := S.remove i !model
          end)
        ops;
      to_list s = S.elements !model
      && cardinal s = S.cardinal !model
      && is_empty s = S.is_empty !model
      && neighbours_clear s)

(* Walking with [next_member] visits exactly the members, for capacities up
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
      let s = create cap in
      List.iter (add s) members;
      let walk ~remove:drop =
        let acc = ref [] and i = ref (next s 0) in
        while !i >= 0 do
          acc := !i :: !acc;
          if drop then remove s !i;
          i := next s (!i + 1)
        done;
        List.rev !acc
      in
      let expected = List.sort_uniq compare members in
      walk ~remove:false = expected
      && next s cap = -1
      && walk ~remove:true = expected
      && is_empty s
      && neighbours_clear s)

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "idempotent" `Quick test_idempotent;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "copy and clear" `Quick test_copy_clear;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_next_member_walk;
  ]
