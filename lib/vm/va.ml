type config = { top_tag : int; table_base : int; table_capacity : int }

let vte_bytes = 64
let class_lo = 51
let class_width = 5
let top_lo = 56
let top_width = 4

let default_config =
  { top_tag = 0xA; table_base = 1 lsl 40; table_capacity = 1 lsl 20 }

let slots_per_class cfg = cfg.table_capacity / Size_class.count

let encode cfg sc ~index ~offset =
  let offs_bits = Size_class.offset_bits sc in
  if offset < 0 || offset >= Size_class.bytes sc then invalid_arg "Va.encode: offset";
  if index < 0 || index >= slots_per_class cfg then invalid_arg "Va.encode: index";
  if index lsl offs_bits >= 1 lsl class_lo then invalid_arg "Va.encode: index width";
  (cfg.top_tag lsl top_lo)
  lor (Size_class.to_index sc lsl class_lo)
  lor (index lsl offs_bits)
  lor offset

let is_jord cfg va =
  va >= 0 && (va lsr top_lo) land ((1 lsl top_width) - 1) = cfg.top_tag

(* Read once, so the parser below makes no Size_class call: the class
   count, and the offset width of class 0 (class [i] has [i] more). *)
let class_count = Size_class.count
let min_offset_bits = Size_class.offset_bits (Size_class.of_index 0)

(* The one parser of the layout: the VTE position of a Jord VA's VMA, or -1
   when the VA is not Jord-managed or names no slot. [index] is within the
   class's budget, [index < table_capacity / class_count], exactly when
   [(index + 1) * class_count <= table_capacity]: no division. *)
let vte_index_of_va cfg va =
  if not (is_jord cfg va) then -1
  else
    let sc_i = (va lsr class_lo) land ((1 lsl class_width) - 1) in
    if sc_i >= class_count then -1
    else
      let offs_bits = min_offset_bits + sc_i in
      let index = (va lsr offs_bits) land ((1 lsl (class_lo - offs_bits)) - 1) in
      let slot = index * class_count in
      if slot + class_count > cfg.table_capacity then -1 else slot + sc_i

let class_at i = Size_class.of_index (i mod Size_class.count)
let index_at i = i / Size_class.count

let decode cfg va =
  let i = vte_index_of_va cfg va in
  if i < 0 then None
  else
    let sc = class_at i in
    Some (sc, index_at i, va land ((1 lsl Size_class.offset_bits sc) - 1))

let base_of cfg va =
  let i = vte_index_of_va cfg va in
  if i < 0 then invalid_arg "Va: not a Jord-managed address";
  encode cfg (class_at i) ~index:(index_at i) ~offset:0

let vte_index cfg sc ~index =
  let i = (index * Size_class.count) + Size_class.to_index sc in
  if i >= cfg.table_capacity then invalid_arg "Va.vte_index: table overflow";
  i

let vte_addr_at cfg i = cfg.table_base + (i * vte_bytes)
let vte_addr cfg sc ~index = vte_addr_at cfg (vte_index cfg sc ~index)

(* ASLR entropy: bits of the index field usable for randomization, i.e. the
   VA bits between the offset field and the size-class field that are not
   needed to address the per-class VTE budget. The paper reports a 5-bit
   entropy reduction (the class field) leaving 29 bits for the 128-byte
   class; our layout has a 51-bit usable span below the class field. *)
let entropy_bits cfg sc =
  let offs = Size_class.offset_bits sc in
  let index_width = class_lo - offs in
  let needed = Jord_util.Bits.ceil_log2 (slots_per_class cfg) in
  Int.max 0 (index_width - needed)

let vte_addr_of_va cfg va =
  let i = vte_index_of_va cfg va in
  if i < 0 then invalid_arg "Va: not a Jord-managed address";
  vte_addr_at cfg i
