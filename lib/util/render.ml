let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v

(* The fewest significant digits (at least %g's six) that read back as
   exactly [v]; a positive exponent drops its '+' and leading zeros. *)
let shortest v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || not (Float.is_finite v) || float_of_string s = v then s else go (p + 1)
  in
  let s = go 6 in
  match String.index_opt s '+' with
  | None -> s
  | Some i ->
      let exp = String.sub s (i + 1) (String.length s - i - 1) in
      String.sub s 0 i ^ string_of_int (int_of_string exp)

let pad s w = s ^ String.make (Int.max 0 (w - String.length s)) ' '

let table ?title ~header ~rows () =
  let ncols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols && String.length cell > widths.(i) then
            widths.(i) <- String.length cell)
        row)
    rows;
  let render_row row =
    String.concat "  " (List.mapi (fun i cell -> pad cell widths.(i)) row)
  in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* ASCII sparkline: resample [values] into [width] columns (mean per
   column) and map each onto a 8-level ramp scaled to [min, max]. *)
let spark_ramp = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |]

let sparkline ?(width = 40) values =
  match values with
  | [] -> ""
  | values ->
      let v = Array.of_list values in
      let n = Array.length v in
      let width = Int.min width n in
      let lo = Array.fold_left Float.min v.(0) v in
      let hi = Array.fold_left Float.max v.(0) v in
      let span = hi -. lo in
      String.init width (fun col ->
          let first = col * n / width and last = ((col + 1) * n / width) - 1 in
          let last = Int.max first last in
          let sum = ref 0.0 in
          for i = first to last do
            sum := !sum +. v.(i)
          done;
          let mean = !sum /. float_of_int (last - first + 1) in
          let level =
            if span <= 0.0 then if hi > 0.0 then Array.length spark_ramp - 1 else 0
            else
              Int.min
                (Array.length spark_ramp - 1)
                (int_of_float ((mean -. lo) /. span *. float_of_int (Array.length spark_ramp - 1) +. 0.5))
          in
          spark_ramp.(level))

let series ?title ~x_label ~y_label named =
  (* Union of x values across all series, sorted. *)
  let module FSet = Set.Make (Float) in
  let xs =
    List.fold_left
      (fun acc (_, pts) -> List.fold_left (fun acc (x, _) -> FSet.add x acc) acc pts)
      FSet.empty named
  in
  let header = x_label :: List.map fst named in
  let lookup pts x =
    match List.assoc_opt x pts with Some y -> f3 y | None -> "-"
  in
  let rows =
    List.map
      (fun x -> f3 x :: List.map (fun (_, pts) -> lookup pts x) named)
      (FSet.elements xs)
  in
  let title =
    match title with
    | Some t -> Some (Printf.sprintf "%s  [y: %s]" t y_label)
    | None -> Some (Printf.sprintf "[y: %s]" y_label)
  in
  table ?title ~header ~rows ()
