(* Property tests of PrivLib: arbitrary well-formed operation sequences
   preserve the allocator/table invariants, and the hardware view (VLBs)
   never serves a translation the table no longer holds. *)

open Jord_vm
module Pl = Jord_privlib.Privlib

type op = Map of int | Unmap of int | Protect of int | Grant of int | Cycle_pd

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Map (128 + (i * 97))) (int_bound 40));
        (3, map (fun i -> Unmap i) (int_bound 20));
        (2, map (fun i -> Protect i) (int_bound 20));
        (2, map (fun i -> Grant i) (int_bound 20));
        (1, return Cycle_pd);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "[%d ops]" (List.length l))
    QCheck.Gen.(list_size (int_bound 120) gen_op)

let make () =
  let memsys = Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default) in
  let hw =
    Hw.create ~memsys ~store:(Vma_store.plain Va.default_config)
      ~va_cfg:Va.default_config ()
  in
  (Pl.create ~hw ~os:(Jord_privlib.Os_facade.create ()), hw)

let run_ops pl hw ops =
  (* Interpret ops against a model: [live] is the VAs PD 0 currently owns. *)
  let live = ref [] in
  let pick i = match !live with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  List.iter
    (fun op ->
      match op with
      | Map bytes ->
          let va, _ = Pl.mmap pl ~core:0 ~bytes ~perm:Perm.rw () in
          live := va :: !live
      | Unmap i -> (
          match pick i with
          | None -> ()
          | Some va ->
              ignore (Pl.munmap pl ~core:0 ~va);
              live := List.filter (fun v -> v <> va) !live)
      | Protect i -> (
          match pick i with
          | None -> ()
          | Some va -> ignore (Pl.mprotect pl ~core:0 ~va ~perm:Perm.r ()))
      | Grant i -> (
          match pick i with
          | None -> ()
          | Some va ->
              let pd, _ = Pl.cget pl ~core:0 in
              ignore (Pl.pcopy pl ~core:0 ~va ~dst_pd:pd ~perm:Perm.r);
              (* cput while the grant is outstanding must be rejected... *)
              (match Pl.cput pl ~core:0 ~pd with
              | _ -> failwith "cput accepted a PD with outstanding grants"
              | exception Fault.Fault (Fault.Bad_handle _) -> ());
              (* ...revoking first makes it legal. *)
              ignore (Pl.mprotect pl ~core:0 ~pd ~va ~perm:Perm.none ());
              ignore (Pl.cput pl ~core:0 ~pd))
      | Cycle_pd ->
          let pd, _ = Pl.cget pl ~core:1 in
          ignore (Pl.ccall pl ~core:1 ~pd);
          ignore (Pl.creturn pl ~core:1);
          ignore (Pl.cput pl ~core:1 ~pd))
    ops;
  ignore hw;
  !live

let prop_table_matches_model =
  QCheck.Test.make ~name:"privlib ops: table tracks exactly the live VMAs" ~count:40
    arb_ops
    (fun ops ->
      let pl, hw = make () in
      let live = run_ops pl hw ops in
      let store = Hw.store hw in
      (* 3 bootstrap VMAs + live ones. *)
      Vma_store.count store = 3 + List.length live
      && List.for_all (fun va -> Vte.covers (Vma_store.lookup store ~va) va) live)

let prop_vlb_never_stale =
  QCheck.Test.make ~name:"privlib ops: VLBs never serve unmapped VAs" ~count:40 arb_ops
    (fun ops ->
      let pl, hw = make () in
      let live = run_ops pl hw ops in
      (* Touch everything live, then unmap it all; every later access must
         fault (a stale VLB entry would instead translate). *)
      List.for_all
        (fun va ->
          ignore (Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data);
          ignore (Pl.munmap pl ~core:0 ~va);
          match Hw.translate hw ~core:0 ~va ~access:Perm.Read ~kind:`Data with
          | exception Fault.Fault (Fault.Unmapped _) -> true
          | _ -> false)
        live)

let prop_chunks_conserved =
  QCheck.Test.make ~name:"privlib ops: allocator live count matches live VMAs" ~count:40
    arb_ops
    (fun ops ->
      let pl, hw = make () in
      let live = run_ops pl hw ops in
      (* 3 bootstrap chunks + live. *)
      Jord_privlib.Free_list.live_chunks (Pl.free_lists pl) = 3 + List.length live)

(* The list-based free lists the int stacks replaced, as a model: which
   chunk each allocation gets is what places VMAs in memory. *)
module Free_list_model = struct
  type chunk = { index : int; phys : int }
  type shard = { mutable cache : chunk list; mutable cached : int }

  type cl = {
    mutable free : chunk list;
    mutable next_index : int;
    shards : shard array;
    live : (int, unit) Hashtbl.t;
  }

  type t = {
    os : Jord_privlib.Os_facade.t;
    refill_batch : int;
    shard_batch : int;
    classes : cl array;
  }

  let create ~os ~refill_batch ~shard_batch ~cores =
    let mk _ =
      {
        free = [];
        next_index = 0;
        shards = Array.init cores (fun _ -> { cache = []; cached = 0 });
        live = Hashtbl.create 8;
      }
    in
    { os; refill_batch; shard_batch; classes = Array.init Size_class.count mk }

  let rec take n src acc =
    if n = 0 then (acc, src)
    else match src with [] -> (acc, src) | c :: rest -> take (n - 1) rest (c :: acc)

  let alloc t ~core sc =
    let cl = t.classes.(Size_class.to_index sc) in
    let shard = cl.shards.(core mod Array.length cl.shards) in
    if shard.cache = [] then begin
      if cl.free = [] then
        for _ = 1 to t.refill_batch do
          let index = cl.next_index in
          cl.next_index <- index + 1;
          let bytes = Size_class.bytes sc in
          let phys = Jord_privlib.Os_facade.reserve_chunk t.os ~bytes in
          cl.free <- { index; phys } :: cl.free
        done;
      let batch, rest = take t.shard_batch cl.free [] in
      cl.free <- rest;
      shard.cache <- batch @ shard.cache;
      shard.cached <- shard.cached + List.length batch
    end;
    match shard.cache with
    | [] -> assert false
    | c :: rest ->
        shard.cache <- rest;
        shard.cached <- shard.cached - 1;
        Hashtbl.replace cl.live c.index ();
        c

  let free t ~core sc (c : chunk) =
    let cl = t.classes.(Size_class.to_index sc) in
    if not (Hashtbl.mem cl.live c.index) then false
    else begin
      Hashtbl.remove cl.live c.index;
      let shard = cl.shards.(core mod Array.length cl.shards) in
      shard.cache <- c :: shard.cache;
      shard.cached <- shard.cached + 1;
      if shard.cached > 2 * t.shard_batch then begin
        let batch, rest = take t.shard_batch shard.cache [] in
        shard.cache <- rest;
        shard.cached <- shard.cached - List.length batch;
        cl.free <- batch @ cl.free
      end;
      true
    end
end

(* Int stacks hand out the same chunks, in the same order, as the lists
   did: small batches so that refills, shard grabs and spills all happen,
   on more cores than shards; a double free is refused by both. *)
let prop_free_lists_match_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun core c -> `Alloc (core, c)) (int_bound 5) (int_bound 2));
          (2, map2 (fun core k -> `Free (core, k)) (int_bound 5) (int_bound 30));
          (1, map (fun k -> `Refree k) (int_bound 30));
        ])
  in
  QCheck.Test.make ~name:"free lists match the list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_bound 300) gen_op))
    (fun ops ->
      let memsys =
        Jord_arch.Memsys.create (Jord_arch.Topology.create Jord_arch.Config.default)
      in
      let fl =
        Jord_privlib.Free_list.create ~os:(Jord_privlib.Os_facade.create ())
          ~va_cfg:Va.default_config ~refill_batch:5 ~cores:3 ~shard_batch:2 ()
      in
      let m =
        Free_list_model.create ~os:(Jord_privlib.Os_facade.create ()) ~refill_batch:5
          ~shard_batch:2 ~cores:3
      in
      let live = ref [] and freed = ref [] in
      let pick l k = List.nth l (k mod List.length l) in
      let freed_by_impl core sc index =
        match Jord_privlib.Free_list.free fl ~memsys ~core sc ~index with
        | (_ : float) -> true
        | exception Fault.Fault _ -> false
      in
      List.for_all
        (fun op ->
          match op with
          | `Alloc (core, c) ->
              let sc = Size_class.of_index (c * 5) in
              let index = Jord_privlib.Free_list.alloc fl ~memsys ~core sc in
              let mc = Free_list_model.alloc m ~core sc in
              live := (sc, mc) :: !live;
              index = mc.Free_list_model.index
              && Jord_privlib.Free_list.phys fl sc index = mc.Free_list_model.phys
          | `Free (_, _) when !live = [] -> true
          | `Free (core, k) ->
              let ((sc, mc) as chunk) = pick !live k in
              live := List.filter (fun x -> x != chunk) !live;
              freed := chunk :: !freed;
              freed_by_impl core sc mc.Free_list_model.index
              && Free_list_model.free m ~core sc mc
          | `Refree _ when !freed = [] -> true
          | `Refree k ->
              let sc, mc = pick !freed k in
              let index = mc.Free_list_model.index in
              if List.exists (fun (_, c) -> c.Free_list_model.index = index) !live then true
              else
                (not (freed_by_impl 0 sc mc.Free_list_model.index))
                && not (Free_list_model.free m ~core:0 sc mc))
        ops
      && Jord_privlib.Free_list.live_chunks fl = List.length !live)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_table_matches_model;
    QCheck_alcotest.to_alcotest prop_vlb_never_stale;
    QCheck_alcotest.to_alcotest prop_chunks_conserved;
    QCheck_alcotest.to_alcotest prop_free_lists_match_model;
  ]
