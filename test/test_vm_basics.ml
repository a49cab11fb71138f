open Jord_vm

(* Perm, Size_class, Va, Vte *)

let test_perm () =
  Alcotest.(check bool) "rw reads" true (Perm.can_read Perm.rw);
  Alcotest.(check bool) "rw writes" true (Perm.can_write Perm.rw);
  Alcotest.(check bool) "rw no exec" false (Perm.can_exec Perm.rw);
  Alcotest.(check bool) "subsumes" true (Perm.subsumes Perm.rwx Perm.rx);
  Alcotest.(check bool) "not subsumes" false (Perm.subsumes Perm.r Perm.rw);
  Alcotest.(check bool) "allows" true (Perm.allows Perm.rx Perm.Exec);
  Alcotest.(check bool) "denies" false (Perm.allows Perm.rx Perm.Write);
  Alcotest.(check string) "render" "r-x" (Perm.to_string Perm.rx);
  Alcotest.(check bool) "make" true (Perm.equal Perm.rw (Perm.make ~read:true ~write:true ()))

let test_size_class () =
  Alcotest.(check int) "26 classes" 26 Size_class.count;
  Alcotest.(check int) "min" 128 (Size_class.bytes (Size_class.of_index 0));
  Alcotest.(check int) "max" (1 lsl 32) (Size_class.bytes (Size_class.of_index 25));
  Alcotest.(check int) "1 byte -> 128" 128 (Size_class.bytes (Size_class.of_size 1));
  Alcotest.(check int) "129 -> 256" 256 (Size_class.bytes (Size_class.of_size 129));
  Alcotest.(check int) "4096 exact" 4096 (Size_class.bytes (Size_class.of_size 4096));
  Alcotest.(check int) "offset bits" 12 (Size_class.offset_bits (Size_class.of_size 4096));
  Alcotest.check_raises "zero" (Invalid_argument "Size_class.of_size") (fun () ->
      ignore (Size_class.of_size 0))

let cfg = Va.default_config

let test_va_roundtrip () =
  let sc = Size_class.of_size 4096 in
  let va = Va.encode cfg sc ~index:42 ~offset:123 in
  Alcotest.(check bool) "jord tagged" true (Va.is_jord cfg va);
  (match Va.decode cfg va with
  | Some (sc', index, offset) ->
      Alcotest.(check int) "class" (Size_class.to_index sc) (Size_class.to_index sc');
      Alcotest.(check int) "index" 42 index;
      Alcotest.(check int) "offset" 123 offset
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check int) "base clears offset" (Va.encode cfg sc ~index:42 ~offset:0)
    (Va.base_of cfg va)

let test_va_rejects_foreign () =
  Alcotest.(check bool) "plain address" false (Va.is_jord cfg 0x1000);
  Alcotest.(check (option reject)) "decode foreign" None
    (Option.map (fun _ -> ()) (Va.decode cfg 0x1000))

let test_vte_positions () =
  (* f interleaves classes: consecutive indices of one class are
     Size_class.count entries apart. *)
  let sc = Size_class.of_index 3 in
  let a0 = Va.vte_addr cfg sc ~index:0 in
  let a1 = Va.vte_addr cfg sc ~index:1 in
  Alcotest.(check int) "stride" (Size_class.count * Va.vte_bytes) (a1 - a0);
  (* Two classes at the same index land on distinct entries. *)
  let b0 = Va.vte_addr cfg (Size_class.of_index 4) ~index:0 in
  Alcotest.(check bool) "distinct" true (a0 <> b0);
  let va = Va.encode cfg sc ~index:7 ~offset:11 in
  Alcotest.(check int) "vte_addr_of_va" (Va.vte_addr cfg sc ~index:7)
    (Va.vte_addr_of_va cfg va)

let prop_va_roundtrip =
  QCheck.Test.make ~name:"VA encode/decode roundtrip"
    QCheck.(triple (int_bound 25) (int_bound 1000) (int_bound 100))
    (fun (ci, index, offset) ->
      let sc = Size_class.of_index ci in
      let offset = offset mod Size_class.bytes sc in
      let va = Va.encode cfg sc ~index ~offset in
      Va.decode cfg va = Some (sc, index, offset))

(* Every reading of a VA ([decode], [vte_index_of_va], [base_of]) agrees
   with the field layout spelled out bit by bit: Top tag in bits 56..59,
   class in 51..55, index above the class's offset bits. The addresses mix
   the Jord tag with foreign ones, classes past the last, high bits 60..62
   (the last makes them negative), and indices within the per-class
   budget, at its edge, or with one bit set anywhere in the index field. *)
let prop_va_parser_matches_layout =
  let budget = Va.slots_per_class cfg in
  let gen =
    QCheck.Gen.(
      let* tag = oneof [ return cfg.Va.top_tag; int_bound 15 ] in
      let* cls = int_bound 31 in
      let* high = int_bound 7 in
      let offs = Size_class.offset_bits (Size_class.of_index (cls mod Size_class.count)) in
      let* index =
        oneof
          [
            int_bound (budget - 1);
            map (fun d -> budget - 1 + d) (int_bound 2);
            map2 (fun bit i -> (1 lsl bit) lor i) (int_bound (50 - offs)) (int_bound 15);
          ]
      in
      let* offset = int_bound ((1 lsl offs) - 1) in
      return
        ((high lsl 60) lor (tag lsl 56) lor (cls lsl 51)
        lor ((index lsl offs) land ((1 lsl 51) - 1))
        lor offset))
  in
  let field va ~lo ~width = (va lsr lo) land ((1 lsl width) - 1) in
  let layout va =
    if va < 0 || field va ~lo:56 ~width:4 <> cfg.Va.top_tag then None
    else
      let cls = field va ~lo:51 ~width:5 in
      if cls >= Size_class.count then None
      else
        let offs = Size_class.offset_bits (Size_class.of_index cls) in
        let index = field va ~lo:offs ~width:(51 - offs) in
        if index >= Va.slots_per_class cfg then None
        else Some (cls, index, va land ((1 lsl offs) - 1))
  in
  QCheck.Test.make ~name:"VA parser matches the field layout" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "0x%x") gen)
    (fun va ->
      let decoded =
        Option.map (fun (sc, i, o) -> (Size_class.to_index sc, i, o)) (Va.decode cfg va)
      in
      decoded = layout va
      &&
      match layout va with
      | None -> Va.vte_index_of_va cfg va = -1
      | Some (cls, index, _) ->
          let sc = Size_class.of_index cls in
          let i = Va.vte_index_of_va cfg va in
          i = Va.vte_index cfg sc ~index
          && Va.class_at i = sc
          && Va.index_at i = index
          && Va.base_of cfg va = Va.encode cfg sc ~index ~offset:0)

(* [Va.vte_index_of_va] as it read with a Size_class call and a division
   per call, kept as the reference for the division-free parser. *)
let division_parser (cfg : Va.config) va =
  if not (Va.is_jord cfg va) then -1
  else
    let sc_i = (va lsr 51) land 31 in
    if sc_i >= Size_class.count then -1
    else
      let offs_bits = Size_class.offset_bits (Size_class.of_index sc_i) in
      let index = (va lsr offs_bits) land ((1 lsl (51 - offs_bits)) - 1) in
      if index >= Va.slots_per_class cfg then -1 else (index * Size_class.count) + sc_i

(* Random tables (capacities that are and are not multiples of the class
   count, some below it) and random VAs over them: foreign tags, every
   class field value including those past the last class, and indices
   inside the budget, at it, past it, or anywhere in the index field. *)
let prop_va_parser_matches_division =
  let gen =
    QCheck.Gen.(
      let* cap = oneof [ return Va.default_config.Va.table_capacity; int_range 1 5000; int_range 1 (1 lsl 24) ] in
      let cfg = { Va.default_config with Va.table_capacity = cap } in
      let budget = Va.slots_per_class cfg in
      let* tag = oneof [ return cfg.Va.top_tag; int_bound 15 ] in
      let* cls = int_bound 31 in
      let offs = Size_class.offset_bits (Size_class.of_index (cls mod Size_class.count)) in
      let* index =
        oneof
          [
            int_bound (max 0 (budget - 1));
            map (fun d -> max 0 (budget - 1 + d)) (int_bound 2);
            map (fun bit -> 1 lsl bit) (int_bound (50 - offs));
          ]
      in
      let* offset = int_bound ((1 lsl offs) - 1) in
      return
        ( cfg,
          (tag lsl 56) lor (cls lsl 51) lor ((index lsl offs) land ((1 lsl 51) - 1)) lor offset ))
  in
  QCheck.Test.make ~name:"VA parser equals the division parser" ~count:3000
    (QCheck.make
       ~print:(fun (cfg, va) -> Printf.sprintf "capacity=%d va=0x%x" cfg.Va.table_capacity va)
       gen)
    (fun (cfg, va) -> Va.vte_index_of_va cfg va = division_parser cfg va)

let prop_vte_index_injective =
  QCheck.Test.make ~name:"VTE positions are injective across (class, index)"
    QCheck.(pair (pair (int_bound 25) (int_bound 500)) (pair (int_bound 25) (int_bound 500)))
    (fun ((c1, i1), (c2, i2)) ->
      let a = Va.vte_index cfg (Size_class.of_index c1) ~index:i1 in
      let b = Va.vte_index cfg (Size_class.of_index c2) ~index:i2 in
      (c1 = c2 && i1 = i2) = (a = b))

let test_vte_perms () =
  let vte = Vte.create ~base:0x1000 ~bytes:512 ~phys:0x8000 () in
  Alcotest.(check bool) "no perm initially" true
    (Perm.equal Perm.none (Vte.perm_for vte ~pd:3));
  Vte.set_perm vte ~pd:3 Perm.rw;
  Alcotest.(check bool) "granted" true (Perm.equal Perm.rw (Vte.perm_for vte ~pd:3));
  Vte.set_perm vte ~pd:3 Perm.r;
  Alcotest.(check bool) "replaced" true (Perm.equal Perm.r (Vte.perm_for vte ~pd:3));
  Vte.set_perm vte ~pd:3 Perm.none;
  Alcotest.(check int) "removed" 0 (Vte.sharer_count vte)

let test_vte_overflow () =
  let vte = Vte.create ~base:0x1000 ~bytes:512 ~phys:0x8000 () in
  (* More sharers than the 20-entry sub-array. *)
  for pd = 1 to 25 do
    Vte.set_perm vte ~pd Perm.r
  done;
  Alcotest.(check int) "25 sharers" 25 (Vte.sharer_count vte);
  Alcotest.(check bool) "pd 25 resolvable" true
    (Perm.equal Perm.r (Vte.perm_for vte ~pd:25));
  (* A PD beyond slot 20 needs the overflow pointer; one within does not. *)
  Alcotest.(check bool) "overflow chase for late pd" true
    (Vte.overflow_lookup_needed vte ~pd:25);
  Alcotest.(check bool) "sub-array hit for early pd" false
    (Vte.overflow_lookup_needed vte ~pd:1);
  (* Removing an early PD lets an overflow entry... stay resolvable. *)
  Vte.set_perm vte ~pd:1 Perm.none;
  Alcotest.(check int) "24 sharers" 24 (Vte.sharer_count vte)

let test_vte_global_and_cover () =
  let vte =
    Vte.create ~base:0x2000 ~bytes:100 ~phys:0x9000 ~global_perm:(Some Perm.rx) ()
  in
  Alcotest.(check bool) "global applies to any pd" true
    (Perm.equal Perm.rx (Vte.perm_for vte ~pd:99));
  Alcotest.(check bool) "covers" true (Vte.covers vte 0x2063);
  Alcotest.(check bool) "bound respected" false (Vte.covers vte 0x2064);
  Alcotest.(check int) "translate" 0x9004 (Vte.translate vte 0x2004)

let test_vte_resize () =
  let vte = Vte.create ~base:0x3000 ~bytes:100 ~phys:0xA000 () in
  Vte.resize vte ~bytes:128;
  Alcotest.(check int) "grown within chunk" 128 (Vte.bytes vte);
  Alcotest.check_raises "beyond chunk" (Invalid_argument "Vte.resize") (fun () ->
      Vte.resize vte ~bytes:129)

(* The option-array sub-array the packed int slots replaced, as a model. *)
module Vte_model = struct
  type slot = { pd : int; perm : Perm.t }
  type t = { sub : slot option array; mutable overflow : slot list }

  let create () = { sub = Array.make Vte.sub_array_capacity None; overflow = [] }

  let find_sub t pd =
    let rec go i =
      if i = Vte.sub_array_capacity then None
      else match t.sub.(i) with Some s when s.pd = pd -> Some i | _ -> go (i + 1)
    in
    go 0

  let perm_for t ~pd =
    match find_sub t pd with
    | Some i -> ( match t.sub.(i) with Some s -> s.perm | None -> Perm.none)
    | None -> (
        match List.find_opt (fun s -> s.pd = pd) t.overflow with
        | Some s -> s.perm
        | None -> Perm.none)

  let overflow_lookup_needed t ~pd = find_sub t pd = None && t.overflow <> []

  let set_perm t ~pd perm =
    (match find_sub t pd with Some i -> t.sub.(i) <- None | None -> ());
    t.overflow <- List.filter (fun s -> s.pd <> pd) t.overflow;
    if not (Perm.equal perm Perm.none) then begin
      let rec free i =
        if i = Vte.sub_array_capacity then None
        else match t.sub.(i) with None -> Some i | Some _ -> free (i + 1)
      in
      match free 0 with
      | Some i -> t.sub.(i) <- Some { pd; perm }
      | None -> t.overflow <- { pd; perm } :: t.overflow
    end

  let sharer_pds t =
    List.filter_map (Option.map (fun s -> s.pd)) (Array.to_list t.sub)
    @ List.map (fun s -> s.pd) t.overflow
end

(* Packed slots resolve every PD as the option array did — permissions,
   overflow chases, sharer order — through grants, revocations and
   overflow past 20 sharers. *)
let prop_vte_slots_match_model =
  let perms = [ Perm.none; Perm.r; Perm.rw; Perm.rx; Perm.rwx ] in
  QCheck.Test.make ~name:"vte packed slots match the option model" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d grants" (List.length ops))
       QCheck.Gen.(list_size (int_bound 150) (pair (int_bound 29) (oneofl perms))))
    (fun ops ->
      let vte = Vte.create ~base:0x1000 ~bytes:512 ~phys:0x8000 () in
      let m = Vte_model.create () in
      let pds = List.init 31 Fun.id in
      List.for_all
        (fun (pd, perm) ->
          Vte.set_perm vte ~pd perm;
          Vte_model.set_perm m ~pd perm;
          let order = ref [] in
          Vte.iter_sharers (fun pd -> order := pd :: !order) vte;
          List.rev !order = Vte_model.sharer_pds m
          && Vte.sharer_count vte = List.length (Vte_model.sharer_pds m)
          && List.for_all
               (fun pd ->
                 let model_has =
                   Vte_model.find_sub m pd <> None
                   || List.exists (fun s -> s.Vte_model.pd = pd) m.Vte_model.overflow
                 in
                 Perm.equal (Vte.perm_for vte ~pd) (Vte_model.perm_for m ~pd)
                 && Vte.has_pd vte ~pd = model_has
                 && Vte.overflow_lookup_needed vte ~pd = Vte_model.overflow_lookup_needed m ~pd)
               pds)
        ops)

let suite =
  [
    Alcotest.test_case "perm" `Quick test_perm;
    Alcotest.test_case "size classes" `Quick test_size_class;
    Alcotest.test_case "va roundtrip" `Quick test_va_roundtrip;
    Alcotest.test_case "va rejects foreign" `Quick test_va_rejects_foreign;
    Alcotest.test_case "vte positions" `Quick test_vte_positions;
    QCheck_alcotest.to_alcotest prop_va_roundtrip;
    QCheck_alcotest.to_alcotest prop_va_parser_matches_layout;
    QCheck_alcotest.to_alcotest prop_va_parser_matches_division;
    QCheck_alcotest.to_alcotest prop_vte_index_injective;
    Alcotest.test_case "vte perms" `Quick test_vte_perms;
    Alcotest.test_case "vte sub-array overflow" `Quick test_vte_overflow;
    Alcotest.test_case "vte global/cover/translate" `Quick test_vte_global_and_cover;
    Alcotest.test_case "vte resize" `Quick test_vte_resize;
    QCheck_alcotest.to_alcotest prop_vte_slots_match_model;
  ]

let test_entropy () =
  (* Smallest class: widest index field; entropy shrinks as the offset field
     grows, and never goes negative. *)
  let e0 = Va.entropy_bits cfg (Size_class.of_index 0) in
  let e10 = Va.entropy_bits cfg (Size_class.of_index 10) in
  let e25 = Va.entropy_bits cfg (Size_class.of_index 25) in
  Alcotest.(check bool) (Printf.sprintf "128B class has plenty (%d)" e0) true (e0 >= 25);
  Alcotest.(check bool) "monotone decrease" true (e0 >= e10 && e10 >= e25);
  Alcotest.(check bool) "never negative" true (e25 >= 0)

let suite = suite @ [ Alcotest.test_case "ASLR entropy" `Quick test_entropy ]
