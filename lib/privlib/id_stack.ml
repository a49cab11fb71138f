type t = { mutable items : int array; mutable n : int }

let create () = { items = [||]; n = 0 }
let length t = t.n
let is_empty t = t.n = 0

let push t x =
  if t.n = Array.length t.items then begin
    let items = Array.make (Int.max 16 (2 * t.n)) 0 in
    Array.blit t.items 0 items 0 t.n;
    t.items <- items
  end;
  t.items.(t.n) <- x;
  t.n <- t.n + 1

let pop t =
  if t.n = 0 then invalid_arg "Id_stack.pop: empty";
  t.n <- t.n - 1;
  t.items.(t.n)

let move src dst n =
  let k = Int.min n src.n in
  for _ = 1 to k do
    push dst (pop src)
  done;
  k
