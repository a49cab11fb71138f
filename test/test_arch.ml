open Jord_arch

let default_topo () = Topology.create Config.default

let test_config_scaling () =
  let c = Config.with_cores Config.default 64 in
  Alcotest.(check int) "cores" 64 c.Config.cores;
  Alcotest.(check bool) "mesh holds cores" true (c.Config.mesh_cols * c.Config.mesh_rows >= 64);
  let c2 = Config.with_sockets Config.default 2 in
  Alcotest.(check int) "sockets" 2 c2.Config.sockets;
  Alcotest.(check bool) "per-socket mesh holds half" true
    (c2.Config.mesh_cols * c2.Config.mesh_rows >= 16)

let test_instr_ns () =
  Alcotest.(check (float 1e-9)) "4 instr at IPC 4 = 1 cycle" 0.25
    (Config.instr_ns Config.default 4);
  Alcotest.(check bool) "fpga slower per instr" true
    (Config.instr_ns Config.fpga 100 > Config.instr_ns Config.default 100)

let test_hops () =
  let t = default_topo () in
  Alcotest.(check int) "self" 0 (Topology.hops t 0 0);
  Alcotest.(check int) "neighbor" 1 (Topology.hops t 0 1);
  (* Core 0 is tile (0,0); core 31 is tile (7,3) in an 8x4 mesh. *)
  Alcotest.(check int) "corner to corner" 10 (Topology.hops t 0 31);
  Alcotest.(check int) "symmetric" (Topology.hops t 3 17) (Topology.hops t 17 3)

let test_latency () =
  let t = default_topo () in
  Alcotest.(check (float 1e-9)) "same tile" 0.0 (Topology.latency_ns t ~src:5 ~dst:5);
  (* 3 cycles/hop at 4 GHz = 0.75 ns per hop. *)
  Alcotest.(check (float 1e-9)) "one hop" 0.75 (Topology.latency_ns t ~src:0 ~dst:1);
  let two_socket = Topology.create (Config.with_sockets Config.default 2) in
  let cross = Topology.latency_ns two_socket ~src:0 ~dst:31 in
  Alcotest.(check bool) "cross socket includes link" true (cross >= 260.0)

(* The flat table is read at [src * cores + dst]: a core just outside
   [0, cores) is refused rather than read from the neighbouring row. *)
let test_latency_range () =
  let t = Topology.create (Config.with_cores Config.default 2) in
  List.iter
    (fun (src, dst) ->
      match Topology.latency_ns t ~src ~dst with
      | l -> Alcotest.failf "latency %d -> %d accepted: %g" src dst l
      | exception Invalid_argument _ -> ())
    [ (0, 2); (0, -1); (2, 0); (-1, 0); (1, 2); (-1, 3) ]

let test_slice_homing () =
  let two_socket = Topology.create (Config.with_sockets Config.default 2) in
  (* First-touch by a socket-1 core homes the line on socket 1. *)
  let home = Topology.slice_of_line two_socket ~requester:20 (0x12345 / 64) in
  Alcotest.(check int) "home on requester socket" 1 (Topology.socket_of two_socket home);
  let home0 = Topology.slice_of_line two_socket ~requester:3 (0x12345 / 64) in
  Alcotest.(check int) "socket 0" 0 (Topology.socket_of two_socket home0)

let test_max_distance () =
  let t = default_topo () in
  let d = Topology.max_distance_ns t ~from:0 in
  Alcotest.(check (float 1e-9)) "10 hops from corner" 7.5 d

(* --- L1 ways, through the public path ---

   A core's L1 is observed through [Memsys]: a read that hits costs the
   L1 latency and counts an L1 hit, and the directory's sharer walk names
   exactly the cores whose L1 holds a line (a fill adds the core, an
   eviction or invalidation drops it). *)

let machine ?(cores = 2) ~l1_size ~l1_ways () =
  Memsys.create
    (Topology.create { (Config.with_cores Config.default cores) with l1_size; l1_ways })

let line_addr l = l * 64

(* Does [core]'s L1 hold line [l]? Read-only: touches no LRU state. *)
let holds m ~core l =
  match Test_memsys_props.sharer_list m ~addr:(line_addr l) with
  | Some cores -> List.mem core cores
  | None -> false

let resident m ~core lines = List.filter (holds m ~core) lines
let misses m = (Memsys.stats m).Memsys.l1_misses
let l1_hit_ns = 0.5

let test_cache_hit_miss () =
  (* 1 KB, 2 ways, 64-byte lines: 8 sets. *)
  let m = machine ~l1_size:1024 ~l1_ways:2 () in
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 5));
  Alcotest.(check int) "miss" 1 (misses m);
  Alcotest.(check (list int)) "nothing evicted" [ 5 ] (resident m ~core:0 [ 5 ]);
  Alcotest.(check (float 0.0)) "hit" l1_hit_ns (Memsys.read m ~core:0 ~addr:(line_addr 5));
  Alcotest.(check int) "valid" 1 (List.length (resident m ~core:0 (List.init 32 Fun.id)));
  (* Lines 4 sets apart share no set; lines 8 apart do: 8 sets. *)
  List.iter (fun l -> ignore (Memsys.read m ~core:0 ~addr:(line_addr l))) [ 9; 13 ];
  Alcotest.(check (list int)) "sets" [ 5; 9; 13 ] (resident m ~core:0 [ 5; 9; 13 ]);
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 21));
  Alcotest.(check (list int)) "third line of set 5 evicts" [ 9; 13; 21 ]
    (resident m ~core:0 [ 5; 9; 13; 21 ])

let test_cache_lru_eviction () =
  (* 2 sets x 2 ways; lines 0, 2, 4 map to set 0. *)
  let m = machine ~l1_size:256 ~l1_ways:2 () in
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 0));
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 2));
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 0));
  (* 0 is now MRU; filling 4 must evict 2. *)
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 4));
  Alcotest.(check (list int)) "LRU victim" [ 0; 4 ] (resident m ~core:0 [ 0; 2; 4 ]);
  Alcotest.(check (float 0.0)) "0 still present" l1_hit_ns
    (Memsys.read m ~core:0 ~addr:(line_addr 0))

let test_cache_invalidate () =
  let m = machine ~l1_size:256 ~l1_ways:2 () in
  ignore (Memsys.write m ~core:0 ~addr:(line_addr 7));
  ignore (Memsys.write m ~core:1 ~addr:(line_addr 7));
  Alcotest.(check int) "invalidate hit" 1 (Memsys.stats m).Memsys.invalidations;
  Alcotest.(check bool) "gone" false (holds m ~core:0 7);
  ignore (Memsys.write m ~core:1 ~addr:(line_addr 7));
  Alcotest.(check int) "invalidate miss" 1 (Memsys.stats m).Memsys.invalidations;
  Alcotest.(check (list int)) "valid count" [] (resident m ~core:0 (List.init 16 Fun.id))

let test_cache_set_state () =
  let m = machine ~l1_size:256 ~l1_ways:2 () in
  (* Sole reader: E, so the write is a silent E->M hit. *)
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 3));
  Alcotest.(check (float 0.0)) "E->M" l1_hit_ns (Memsys.write m ~core:0 ~addr:(line_addr 3));
  ignore (Memsys.read m ~core:1 ~addr:(line_addr 3));
  Alcotest.(check int) "M line forwarded" 1 (Memsys.stats m).Memsys.forwards;
  (* Core 0 now holds 1 and 3 in set 1; core 1's write invalidates 3. *)
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 1));
  ignore (Memsys.write m ~core:1 ~addr:(line_addr 3));
  Alcotest.(check bool) "invalid frees way" false (holds m ~core:0 3);
  (* The freed way takes the next fill, so line 1 is not evicted. *)
  ignore (Memsys.read m ~core:0 ~addr:(line_addr 5));
  Alcotest.(check (list int)) "fill takes the free way" [ 1; 5 ]
    (resident m ~core:0 [ 1; 3; 5 ])

(* A line's set is a mask of its index and its line a shift of its address,
   so a set count or line size that is not a power of two is refused up
   front, and so is a negative address. *)
let test_geometry_checks () =
  Alcotest.check_raises "3 sets"
    (Invalid_argument "Memsys.create: L1 sets not a power of two") (fun () ->
      ignore (machine ~l1_size:192 ~l1_ways:1 () : Memsys.t));
  Alcotest.check_raises "3 lines in 2 ways"
    (Invalid_argument "Memsys.create: L1 lines not divisible by ways") (fun () ->
      ignore (machine ~l1_size:192 ~l1_ways:2 () : Memsys.t));
  Alcotest.check_raises "no ways" (Invalid_argument "Memsys.create: L1 geometry") (fun () ->
      ignore (machine ~l1_size:256 ~l1_ways:0 () : Memsys.t));
  Alcotest.check_raises "48-byte lines"
    (Invalid_argument "Memsys.create: line size not a power of two") (fun () ->
      ignore (Memsys.create (Topology.create { Config.default with line = 48 }) : Memsys.t));
  Alcotest.check_raises "2-byte lines"
    (Invalid_argument "Memsys.create: line size below 4 bytes") (fun () ->
      ignore (Memsys.create (Topology.create { Config.default with line = 2 }) : Memsys.t));
  let m = Memsys.create (Topology.create Config.default) in
  Alcotest.(check int) "line of the last byte" 1 (Memsys.line_of m 127);
  Alcotest.check_raises "negative address" (Invalid_argument "Memsys: negative address")
    (fun () -> ignore (Memsys.read m ~core:0 ~addr:(-64) : float))

(* After one core reads a list of lines into a 16-set, 4-way L1, each
   set holds the last 4 distinct lines read into it. *)
let prop_cache_valid_count =
  QCheck.Test.make ~name:"cache valid count matches distinct resident lines"
    QCheck.(list (int_bound 63))
    (fun lines ->
      let m = machine ~l1_size:4096 ~l1_ways:4 () in
      List.iter (fun l -> ignore (Memsys.read m ~core:0 ~addr:(line_addr l))) lines;
      let expected =
        (* Distinct lines, most recent read first; each set keeps 4. *)
        let latest = List.fold_left (fun acc l -> l :: List.filter (( <> ) l) acc) [] lines in
        List.concat_map
          (fun set -> List.filteri (fun i _ -> i < 4) (List.filter (fun l -> l mod 16 = set) latest))
          (List.init 16 Fun.id)
      in
      List.sort compare (resident m ~core:0 (List.init 64 Fun.id))
      = List.sort compare expected)

type mesi = Modified | Exclusive | Shared | Invalid

(* The option-returning cache the slot API replaced, kept as a model. *)
module Cache_model = struct
  type t = {
    sets : int;
    ways : int;
    tags : int array;
    states : mesi array;
    lru : int array;
    mutable tick : int;
    mutable valid : int;
  }

  let create ~size ~ways ~line =
    let lines = size / line in
    let sets = lines / ways in
    {
      sets;
      ways;
      tags = Array.make lines (-1);
      states = Array.make lines Invalid;
      lru = Array.make lines 0;
      tick = 0;
      valid = 0;
    }

  let slot t set way = (set * t.ways) + way

  let find_way t line =
    let set = abs line mod t.sets in
    let rec go w =
      if w = t.ways then None
      else
        let i = slot t set w in
        if t.tags.(i) = line && t.states.(i) <> Invalid then Some i else go (w + 1)
    in
    go 0

  let touch t i =
    t.tick <- t.tick + 1;
    t.lru.(i) <- t.tick

  let lookup t line =
    match find_way t line with
    | Some i ->
        touch t i;
        Some t.states.(i)
    | None -> None

  let peek t line = match find_way t line with Some i -> Some t.states.(i) | None -> None

  let set_state t line state =
    match find_way t line with
    | Some i ->
        if state = Invalid then begin
          t.tags.(i) <- -1;
          t.valid <- t.valid - 1
        end;
        t.states.(i) <- state
    | None -> ()

  let victim_way t set =
    let best = ref (-1) and best_lru = ref max_int and empty = ref (-1) in
    for w = 0 to t.ways - 1 do
      let i = slot t set w in
      if t.states.(i) = Invalid then (if !empty < 0 then empty := i)
      else if t.lru.(i) < !best_lru then begin
        best := i;
        best_lru := t.lru.(i)
      end
    done;
    if !empty >= 0 then (!empty, None) else (!best, Some (t.tags.(!best), t.states.(!best)))

  let insert t line state =
    match find_way t line with
    | Some i ->
        t.states.(i) <- state;
        touch t i;
        None
    | None ->
        let i, evicted = victim_way t (abs line mod t.sets) in
        (match evicted with Some _ -> () | None -> t.valid <- t.valid + 1);
        t.tags.(i) <- line;
        t.states.(i) <- state;
        touch t i;
        evicted

  let invalidate t line =
    match find_way t line with
    | Some i ->
        t.tags.(i) <- -1;
        t.states.(i) <- Invalid;
        t.valid <- t.valid - 1;
        true
    | None -> false
end

type cache_op = Read of int * int | Write of int * int (* core, line *)

let gen_cache_op =
  let open QCheck.Gen in
  map3
    (fun write core l -> if write then Write (core, l) else Read (core, l))
    bool (int_bound 1) (int_bound 11)

(* Two cores' 2-set, 2-way L1s against two option-model caches driven by
   the MESI rules: a read miss fills E when the other core lacks the line
   and S otherwise (downgrading its M or E copy), a write invalidates the
   other copy and leaves M, and a write to S is an upgrade. Every access
   is the same hit, miss or upgrade, with the same latency class, and
   afterwards both L1s hold the lines the models hold, same LRU victims,
   same valid counts. *)
let prop_cache_matches_option_model =
  QCheck.Test.make ~name:"cache slots match the option model" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_bound 80) gen_cache_op))
    (fun ops ->
      let m = machine ~l1_size:256 ~l1_ways:2 () in
      let models = Array.init 2 (fun _ -> Cache_model.create ~size:256 ~ways:2 ~line:64) in
      let outcome () =
        let s = Memsys.stats m in
        (s.Memsys.l1_hits, s.Memsys.l1_misses, s.Memsys.upgrades)
      in
      List.for_all
        (fun op ->
          let (h0, m0, u0) = outcome () in
          let expect, lat =
            match op with
            | Read (core, l) ->
                let mine = models.(core) and other = models.(1 - core) in
                let lat = Memsys.read m ~core ~addr:(line_addr l) in
                ( (match Cache_model.lookup mine l with
                  | Some _ -> `Hit
                  | None ->
                      let state =
                        match Cache_model.peek other l with
                        | Some _ ->
                            Cache_model.set_state other l Shared;
                            Shared
                        | None -> Exclusive
                      in
                      ignore (Cache_model.insert mine l state);
                      `Miss),
                  lat )
            | Write (core, l) ->
                let mine = models.(core) and other = models.(1 - core) in
                let lat = Memsys.write m ~core ~addr:(line_addr l) in
                ( (match Cache_model.lookup mine l with
                  | Some (Modified | Exclusive) ->
                      Cache_model.set_state mine l Modified;
                      `Hit
                  | Some _ ->
                      ignore (Cache_model.invalidate other l);
                      Cache_model.set_state mine l Modified;
                      `Upgrade
                  | None ->
                      ignore (Cache_model.invalidate other l);
                      ignore (Cache_model.insert mine l Modified);
                      `Miss),
                  lat )
          in
          let (h1, m1, u1) = outcome () in
          let got =
            if h1 > h0 then `Hit else if m1 > m0 then `Miss else if u1 > u0 then `Upgrade else `None
          in
          got = expect
          && (expect <> `Hit || lat = l1_hit_ns)
          && List.for_all
               (fun core ->
                 let model = models.(core) in
                 resident m ~core (List.init 12 Fun.id)
                 = List.filter (fun l -> Cache_model.peek model l <> None) (List.init 12 Fun.id)
                 && List.length (resident m ~core (List.init 12 Fun.id))
                    = model.Cache_model.valid)
               [ 0; 1 ])
        ops)

type table_op = Add of int * int | Remove of int | Set of int * int

(* [Int_table] (the VMA table's and PrivLib's grant counts) against a
   Hashtbl model: small and large keys, deletions, and enough distinct keys
   to double the table several times from its smallest size. *)
let prop_int_table_matches_hashtbl =
  let key =
    QCheck.Gen.(oneof [ int_bound 400; map (fun k -> (1 lsl 40) + (k * 64)) (int_bound 200) ])
  in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> Add (k, v)) key (int_bound 1000));
          (2, map (fun k -> Remove k) key);
          (1, map2 (fun k v -> Set (k, v)) key (int_bound 1000));
        ])
  in
  QCheck.Test.make ~name:"directory table matches a Hashtbl model" ~count:200
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_range 50 600) gen_op))
    (fun ops ->
      let t = Jord_util.Int_table.create ~size:1 (-1) in
      let model = Hashtbl.create 16 in
      let agrees k =
        let slot = Jord_util.Int_table.find t k in
        match Hashtbl.find_opt model k with
        | Some v -> slot >= 0 && Jord_util.Int_table.value t slot = v
        | None -> slot = -1
      in
      let ok =
        List.for_all
          (fun op ->
            (match op with
            | Add (k, v) ->
                if Hashtbl.mem model k then
                  (match Jord_util.Int_table.add t k v with
                  | _ -> failwith "duplicate key accepted"
                  | exception Invalid_argument _ -> ())
                else begin
                  let slot = Jord_util.Int_table.add t k v in
                  assert (Jord_util.Int_table.value t slot = v);
                  Hashtbl.replace model k v
                end
            | Remove k ->
                Jord_util.Int_table.remove t k;
                Hashtbl.remove model k
            | Set (k, v) ->
                let slot = Jord_util.Int_table.find t k in
                if slot >= 0 then begin
                  Jord_util.Int_table.set_value t slot v;
                  Hashtbl.replace model k v
                end);
            Jord_util.Int_table.length t = Hashtbl.length model
            && (match op with Add (k, _) | Remove k | Set (k, _) -> agrees k))
          ops
      in
      ok
      && Hashtbl.fold (fun k _ acc -> acc && agrees k) model true
      && Jord_util.Int_table.fold
           (fun k v acc -> acc && Hashtbl.find_opt model k = Some v)
           t true)

(* 5000 lines, each first touched by core [line mod 4] of a 2-socket
   machine, from an empty directory: the table grows at 3/4 load several
   times, and every line keeps the home its first touch gave it and its
   sharer. A 1 MB L1 (2048 sets) holds every line, so no fill evicts. *)
let test_directory_first_touch () =
  let topo =
    Topology.create
      { (Config.with_sockets (Config.with_cores Config.default 4) 2) with l1_size = 1 lsl 20 }
  in
  let m = Memsys.create topo in
  let addr line = line * 7 * 64 in
  for line = 0 to 4999 do
    Alcotest.(check int) "absent before first touch" (-1) (Memsys.sharer_slot m ~addr:(addr line));
    ignore (Memsys.read m ~core:(line mod 4) ~addr:(addr line))
  done;
  Alcotest.(check bool) "entries" true
    (List.for_all (fun line -> Memsys.sharer_slot m ~addr:(addr line) >= 0) (List.init 5000 Fun.id)
    && Memsys.sharer_slot m ~addr:(addr 5000) = -1);
  for line = 0 to 4999 do
    Alcotest.(check int) "home kept"
      (Topology.slice_of_line topo ~requester:(line mod 4) (line * 7))
      (Memsys.home_of m ~addr:(addr line) ~requester:0);
    Alcotest.(check (option (list int)))
      "sharers kept" (Some [ line mod 4 ])
      (Test_memsys_props.sharer_list m ~addr:(addr line))
  done;
  (* Eight newer lines in line 1's set evict it from core 1's L1. *)
  for k = 1 to 8 do
    ignore (Memsys.read m ~core:1 ~addr:(addr 1 + (((1 lsl 20) + (k * 2048)) * 64)))
  done;
  Alcotest.(check (option (list int))) "drop_core" (Some []) (Test_memsys_props.sharer_list m ~addr:(addr 1))

(* The tables [create] builds reproduce the placement and hop formulas
   exactly, for every core and core pair of every machine shape the
   experiments build. *)
let test_latency_tables_match_formula () =
  List.iter
    (fun (name, cfg) ->
      let topo = Topology.create cfg in
      let per_socket = Jord_util.Bits.ceil_div cfg.Config.cores cfg.Config.sockets in
      let cols = cfg.Config.mesh_cols in
      let tile c = (c mod per_socket mod cols, c mod per_socket / cols) in
      let n = cfg.Config.cores in
      let bad = ref 0 in
      for c = 0 to n - 1 do
        if Topology.tile_of topo c <> tile c || Topology.socket_of topo c <> c / per_socket
        then incr bad
      done;
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let (xa, ya), (xb, yb) = (tile src, tile dst) in
          let hops = abs (xa - xb) + abs (ya - yb) in
          if Topology.hops topo src dst <> hops then incr bad;
          let intra = Config.cycles_ns cfg (hops * cfg.Config.link_cycles) in
          let expect =
            if src / per_socket = dst / per_socket then intra
            else intra +. cfg.Config.cross_socket_ns
          in
          let got = Topology.latency_ns topo ~src ~dst in
          if Int64.bits_of_float got <> Int64.bits_of_float expect then incr bad
        done
      done;
      Alcotest.(check int) (name ^ ": cores and pairs off the formula") 0 !bad)
    [
      ("default", Config.default);
      ("fpga", Config.fpga);
      ("8 cores", Config.with_cores Config.default 8);
      ("64 cores", Config.with_cores Config.default 64);
      ("512 cores", Config.with_cores Config.default 512);
      ("2 sockets", Config.with_sockets Config.default 2);
    ]

let suite =
  [
    Alcotest.test_case "config scaling" `Quick test_config_scaling;
    Alcotest.test_case "instr timing" `Quick test_instr_ns;
    Alcotest.test_case "mesh hops" `Quick test_hops;
    Alcotest.test_case "latency" `Quick test_latency;
    Alcotest.test_case "latency range check" `Quick test_latency_range;
    Alcotest.test_case "NUMA slice homing" `Quick test_slice_homing;
    Alcotest.test_case "max distance" `Quick test_max_distance;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache invalidate" `Quick test_cache_invalidate;
    Alcotest.test_case "cache set_state" `Quick test_cache_set_state;
    Alcotest.test_case "cache and memsys geometry checks" `Quick test_geometry_checks;
    QCheck_alcotest.to_alcotest prop_cache_valid_count;
    QCheck_alcotest.to_alcotest prop_cache_matches_option_model;
    QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl;
    Alcotest.test_case "directory first touch" `Quick test_directory_first_touch;
    Alcotest.test_case "latency tables match the hop formula" `Quick
      test_latency_tables_match_formula;
  ]
