type t = int

let none = 0
let r = 1
let w = 2
let x = 4
let rw = r lor w
let rx = r lor x
let rwx = r lor w lor x

let make ?(read = false) ?(write = false) ?(exec = false) () =
  (if read then r else 0) lor (if write then w else 0) lor (if exec then x else 0)

let of_bits b = b land rwx
let union = ( lor )
let inter = ( land )
let can_read t = t land r <> 0
let can_write t = t land w <> 0
let can_exec t = t land x <> 0
let subsumes a b = b land lnot a = 0

type access = Read | Write | Exec

let allows t = function
  | Read -> can_read t
  | Write -> can_write t
  | Exec -> can_exec t

let to_string t =
  let c b ch = if b then ch else "-" in
  c (can_read t) "r" ^ c (can_write t) "w" ^ c (can_exec t) "x"

let pp ppf t = Format.pp_print_string ppf (to_string t)
let equal = Int.equal
