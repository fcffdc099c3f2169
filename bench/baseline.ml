(* The one shape of every BENCH_*.json file: a benchmark name, a
   [params] manifest (seed, sizes, OCaml version, build profile, core
   count) and typed rows, one per line.  main.exe writes these files and
   check_regress.exe judges them; neither knows any other layout.

   A row is measured at [value] in [unit]; [better] says which way is
   good.  [limit] bounds the value in the committed file and
   [fresh_limit] in a fresh run: a value must stay strictly on the
   better side of its bound. *)

type better =
  | Higher
  | Lower

type row = {
  layer : string;
  metric : string;
  key : string;
  value : float;
  unit : string;
  better : better;
  limit : float option;
  fresh_limit : float option;
}

let name r =
  if r.key = "" then r.layer ^ "." ^ r.metric
  else Printf.sprintf "%s.%s[%s]" r.layer r.metric r.key

(* The writer rounds nothing: main.exe rounds each value to the
   precision it reports, and %.15g reads that decimal back unchanged
   (Json.write's %.17g would print 71.13 as 71.129999999999995). *)
let number v = Printf.sprintf "%.15g" v

let write path ~benchmark ~params rows =
  let str s = Json.to_string (Json.Str s) in
  let field (k, v) =
    Printf.sprintf "%s: %s" (str k) (match v with Json.Num f -> number f | v -> Json.to_string v)
  in
  let bound k = Option.fold ~none:[] ~some:(fun v -> [ (k, Json.Num v) ]) in
  let line r =
    "{"
    ^ String.concat ", "
        (List.map field
           ([ ("layer", Json.Str r.layer);
              ("metric", Json.Str r.metric);
              ("key", Json.Str r.key);
              ("value", Json.Num r.value);
              ("unit", Json.Str r.unit);
              ("better", Json.Str (match r.better with Higher -> "higher" | Lower -> "lower")) ]
           @ bound "limit" r.limit @ bound "fresh_limit" r.fresh_limit))
    ^ "}"
  in
  let oc = open_out path in
  Printf.fprintf oc "{\"benchmark\": %s,\n \"params\": {%s},\n \"rows\": [\n  %s\n ]}\n"
    (str benchmark)
    (String.concat ", " (List.map field params))
    (String.concat ",\n  " (List.map line rows));
  close_out oc

(* Raises [Json.Parse_error], [Sys_error] or [Failure] on a file that is
   not a baseline. *)
let read path =
  let row j =
    let str k =
      match Json.member k j with Json.Str s -> s | _ -> failwith ("row without " ^ k)
    in
    let num k = match Json.member k j with Json.Num v -> Some v | _ -> None in
    { layer = str "layer";
      metric = str "metric";
      key = str "key";
      value =
        (match num "value" with Some v -> v | None -> failwith "row without value");
      unit = str "unit";
      better =
        (match str "better" with
        | "higher" -> Higher
        | "lower" -> Lower
        | s -> failwith (Printf.sprintf "better must be higher or lower, not %S" s));
      limit = num "limit";
      fresh_limit = num "fresh_limit" }
  in
  match Json.member "rows" (Json.read_file path) with
  | Json.Arr rows -> List.map row rows
  | _ -> failwith "no rows"
