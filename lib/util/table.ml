type cell = S of string | I of int | F of float | F4 of float

type t = { title : string; columns : string list; mutable rev_rows : cell list list }

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: row length does not match columns";
  t.rev_rows <- row :: t.rev_rows

let columns t = t.columns
let rows t = List.rev t.rev_rows

let cell_to_string = function
  | S s -> s
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.2f" f
  | F4 f -> Printf.sprintf "%.4f" f

let to_ascii t =
  let rows = rows t in
  let header = t.columns in
  let string_rows = List.map (List.map cell_to_string) rows in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i)))
          (String.length col) string_rows)
      header
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_row cells =
    String.concat "  " (List.map2 pad cells widths)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (render_row header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun row -> Buffer.add_string buf (render_row row ^ "\n")) string_rows;
  Buffer.contents buf

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape t.columns) ^ "\n");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (List.map (fun c -> csv_escape (cell_to_string c)) row) ^ "\n"))
    (rows t);
  Buffer.contents buf

let print t = print_string (to_ascii t)
