(* Property tests of the coherence engine: after any interleaving of reads
   and writes, the global MESI invariants must hold. *)

open Jord_arch

let small_machine () =
  Memsys.create (Topology.create (Config.with_cores Config.default 8))

type op = Read of int * int | Write of int * int

let gen_op =
  QCheck.Gen.(
    map2
      (fun w (core, line) ->
        let addr = 0x10000 + (line * 64) in
        if w then Write (core mod 8, addr) else Read (core mod 8, addr))
      bool
      (pair (int_bound 7) (int_bound 15)))

let arb_ops = QCheck.make ~print:(fun l -> string_of_int (List.length l))
    QCheck.Gen.(list_size (int_bound 300) gen_op)

let apply m = function
  | Read (core, addr) -> ignore (Memsys.read m ~core ~addr)
  | Write (core, addr) -> ignore (Memsys.write m ~core ~addr)

let lines = List.init 16 (fun i -> 0x10000 + (i * 64))

(* Single-writer invariant: at most one core holds a line writable, and if
   one does, it is the only sharer the directory tracks. *)
let prop_single_writer =
  QCheck.Test.make ~name:"MESI: single writer, no stale sharers" ~count:100 arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      List.for_all
        (fun addr ->
          let sharers = Jord_util.Bitset.to_list (Memsys.sharers m ~addr) in
          let writable = List.length sharers <= 1 in
          (* More than one sharer is fine only if no write has exclusive
             ownership; we detect it through a probe: a read from a sharer
             must be an L1 hit. *)
          ignore writable;
          List.for_all
            (fun core ->
              let lat = Memsys.read m ~core ~addr in
              lat <= 0.5 +. 1e-9)
            sharers)
        lines)

(* Read-your-writes at hit cost. *)
let prop_write_then_read_hits =
  QCheck.Test.make ~name:"write then read on same core is an L1 hit" ~count:100
    arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      List.for_all
        (fun addr ->
          ignore (Memsys.write m ~core:3 ~addr);
          Memsys.read m ~core:3 ~addr <= 0.5 +. 1e-9)
        lines)

(* The stats never go inconsistent: hits + misses equals total accesses. *)
let prop_stats_conserved =
  QCheck.Test.make ~name:"hit+miss count equals access count" ~count:100 arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      let s = Memsys.stats m in
      (* Upgrades are counted within hits-or-misses? They are a third
         category of access outcome: S-hit requiring ownership. *)
      s.Memsys.l1_hits + s.Memsys.l1_misses + s.Memsys.upgrades = List.length ops)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_single_writer;
    QCheck_alcotest.to_alcotest prop_write_then_read_hits;
    QCheck_alcotest.to_alcotest prop_stats_conserved;
  ]
