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

let test_cache_hit_miss () =
  let c = Cache.create ~size:1024 ~ways:2 ~line:64 in
  Alcotest.(check int) "sets" 8 (Cache.sets c);
  Alcotest.(check int) "miss" (-1) (Cache.lookup c 5);
  Alcotest.(check int) "nothing evicted" (-1) (Cache.insert c 5 Mesi.Exclusive);
  Alcotest.(check bool) "hit" true (Cache.lookup c 5 >= 0);
  Alcotest.(check int) "valid" 1 (Cache.count_valid c)

let test_cache_lru_eviction () =
  let c = Cache.create ~size:256 ~ways:2 ~line:64 in
  (* 2 sets x 2 ways; lines 0,2,4 map to set 0. *)
  ignore (Cache.insert c 0 Mesi.Shared : int);
  ignore (Cache.insert c 2 Mesi.Shared : int);
  ignore (Cache.lookup c 0 : int);
  (* 0 is now MRU; inserting 4 must evict 2. *)
  Alcotest.(check int) "LRU victim" 2 (Cache.insert c 4 Mesi.Shared);
  Alcotest.(check bool) "0 still present" true (Cache.peek c 0 >= 0)

let test_cache_invalidate () =
  let c = Cache.create ~size:256 ~ways:2 ~line:64 in
  ignore (Cache.insert c 7 Mesi.Modified : int);
  Alcotest.(check bool) "invalidate hit" true (Cache.invalidate c 7);
  Alcotest.(check int) "gone" (-1) (Cache.peek c 7);
  Alcotest.(check bool) "invalidate miss" false (Cache.invalidate c 7);
  Alcotest.(check int) "valid count" 0 (Cache.count_valid c)

let test_cache_set_state () =
  let c = Cache.create ~size:256 ~ways:2 ~line:64 in
  ignore (Cache.insert c 3 Mesi.Exclusive : int);
  Cache.set_state c (Cache.peek c 3) Mesi.Modified;
  Alcotest.(check bool) "M" true (Cache.state c (Cache.peek c 3) = Mesi.Modified);
  Cache.set_state c (Cache.peek c 3) Mesi.Invalid;
  Alcotest.(check int) "invalid frees way" (-1) (Cache.peek c 3)

(* A line's set is a mask of its index and its line a shift of its address,
   so a set count or line size that is not a power of two is refused up
   front, and so is a negative address. *)
let test_geometry_checks () =
  Alcotest.check_raises "3 sets"
    (Invalid_argument "Cache.create: sets not a power of two") (fun () ->
      ignore (Cache.create ~size:192 ~ways:1 ~line:64 : Cache.t));
  Alcotest.check_raises "48-byte lines"
    (Invalid_argument "Memsys.create: line size not a power of two") (fun () ->
      ignore (Memsys.create (Topology.create { Config.default with line = 48 }) : Memsys.t));
  let m = Memsys.create (Topology.create Config.default) in
  Alcotest.(check int) "line of the last byte" 1 (Memsys.line_of m 127);
  Alcotest.check_raises "negative address" (Invalid_argument "Memsys: negative address")
    (fun () -> ignore (Memsys.read m ~core:0 ~addr:(-64) : float))

let prop_cache_valid_count =
  QCheck.Test.make ~name:"cache valid count matches distinct resident lines"
    QCheck.(list (int_bound 63))
    (fun lines ->
      let c = Cache.create ~size:4096 ~ways:4 ~line:64 in
      List.iter (fun l -> ignore (Cache.insert c l Mesi.Shared : int)) lines;
      let resident = List.length (List.sort_uniq compare (List.filter (fun l -> Cache.peek c l >= 0) lines)) in
      Cache.count_valid c = resident)

(* The option-returning cache the slot API replaced, kept as a model. *)
module Cache_model = struct
  type t = {
    sets : int;
    ways : int;
    tags : int array;
    states : Mesi.t array;
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
      states = Array.make lines Mesi.Invalid;
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
        if t.tags.(i) = line && t.states.(i) <> Mesi.Invalid then Some i else go (w + 1)
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
        if state = Mesi.Invalid then begin
          t.tags.(i) <- -1;
          t.valid <- t.valid - 1
        end;
        t.states.(i) <- state
    | None -> ()

  let victim_way t set =
    let best = ref (-1) and best_lru = ref max_int and empty = ref (-1) in
    for w = 0 to t.ways - 1 do
      let i = slot t set w in
      if t.states.(i) = Mesi.Invalid then (if !empty < 0 then empty := i)
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
        t.states.(i) <- Mesi.Invalid;
        t.valid <- t.valid - 1;
        true
    | None -> false
end

type cache_op =
  | Lookup of int
  | Peek of int
  | Insert of int * Mesi.t
  | Set_state of int * Mesi.t
  | Invalidate of int

let gen_cache_op =
  let open QCheck.Gen in
  let line = int_bound 11 in
  let valid = oneofl [ Mesi.Modified; Mesi.Exclusive; Mesi.Shared ] in
  frequency
    [
      (3, map (fun l -> Lookup l) line);
      (1, map (fun l -> Peek l) line);
      (4, map2 (fun l s -> Insert (l, s)) line valid);
      ( 2,
        map2
          (fun l s -> Set_state (l, s))
          line
          (oneofl [ Mesi.Modified; Mesi.Shared; Mesi.Invalid ]) );
      (2, map (fun l -> Invalidate l) line);
    ]

(* Slot probes, slot-based state updates and int evictions agree with the
   option API on a 2-set, 2-way cache: same hits and states, same LRU
   victims and evicted lines, [Invalid] frees the way, same valid count. *)
let prop_cache_matches_option_model =
  QCheck.Test.make ~name:"cache slots match the option model" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (int_bound 80) gen_cache_op))
    (fun ops ->
      let c = Cache.create ~size:256 ~ways:2 ~line:64 in
      let m = Cache_model.create ~size:256 ~ways:2 ~line:64 in
      let state_at slot = if slot < 0 then None else Some (Cache.state c slot) in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Lookup l -> state_at (Cache.lookup c l) = Cache_model.lookup m l
            | Peek l -> state_at (Cache.peek c l) = Cache_model.peek m l
            | Insert (l, st) ->
                let evicted = Cache.insert c l st in
                evicted = Option.fold ~none:(-1) ~some:fst (Cache_model.insert m l st)
            | Set_state (l, st) ->
                let slot = Cache.peek c l in
                if slot >= 0 then Cache.set_state c slot st;
                Cache_model.set_state m l st;
                true
            | Invalidate l -> Cache.invalidate c l = Cache_model.invalidate m l
          in
          same
          && Cache.count_valid c = m.Cache_model.valid
          && List.for_all (fun l -> state_at (Cache.peek c l) = Cache_model.peek m l)
               (List.init 12 Fun.id))
        ops)

type table_op = Add of int * int | Remove of int | Set of int * int

(* The directory's table against a Hashtbl model: small and large keys,
   deletions, and enough distinct keys to double the table several times
   from its smallest size. *)
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

let test_directory_first_touch () =
  let d = Directory.create ~cores:4 in
  (* 5000 lines from an empty directory: several doublings. *)
  for line = 0 to 4999 do
    Alcotest.(check int) "absent before first touch" (-1) (Directory.find d (line * 7));
    let e = Directory.add d (line * 7) ~home:(line mod 4) in
    Jord_util.Bitset.add e.Directory.sharers (line mod 4)
  done;
  Alcotest.(check int) "entries" 5000 (Directory.entries d);
  for line = 0 to 4999 do
    let slot = Directory.find d (line * 7) in
    let e = Directory.entry d slot in
    Alcotest.(check int) "home kept" (line mod 4) e.Directory.home;
    Alcotest.(check (list int))
      "sharers kept" [ line mod 4 ]
      (Jord_util.Bitset.to_list e.Directory.sharers)
  done;
  Directory.drop_core d 7 1;
  Alcotest.(check bool) "drop_core" true
    (Jord_util.Bitset.is_empty (Directory.entry d (Directory.find d 7)).Directory.sharers)

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
