type counter = { mutable c : int }
type gauge = { mutable g : float }

let hbuckets = 64

type histogram = {
  buckets : int array; (* [hbuckets] log2 buckets *)
  mutable hcount : int;
  mutable hsum : float;
}

(* A family is one registry item for many same-named instruments that
   differ only in one integer label: index i of the array is the
   instrument labelled [(label, string_of_int i)], so it costs one word
   instead of a cell, an item and a label list of its own. *)
type counters = int array
type gauges = float array

(* A snapshot's reading of one instrument. *)
type kind =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (int * int) list; count : int; sum : float }

type cell =
  | C of counter
  | G of gauge
  | H of histogram
  | Cs of string * counters (* the family's label, its counts *)
  | Gs of string * gauges
  | Absorbed of (string * (string * string) list, kind) Hashtbl.t
      (* [absorb]'s sum per (name, labels) key *)

type item = { i_name : string; i_labels : (string * string) list; i_cell : cell }

(* At most one item is [Absorbed], made by the first [absorb]: a
   context folding R replicates keeps one sum per key, not R.  It is
   found by walking the items, so a registry that absorbs nothing, a
   cluster's own, costs no word for it. *)
type t = { mutable items : item list (* newest first *) }

let create () = { items = [] }

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let register t ~labels name cell =
  let item = { i_name = name; i_labels = canonical_labels labels; i_cell = cell } in
  t.items <- item :: t.items

let counter t ?(labels = []) name =
  let c = { c = 0 } in
  register t ~labels name (C c);
  c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c
let reset_counter c = c.c <- 0

let gauge t ?(labels = []) name =
  let g = { g = 0. } in
  register t ~labels name (G g);
  g

let set_gauge g v = g.g <- v
let add_gauge g v = g.g <- g.g +. v
let gauge_value g = g.g

let counters t ?(labels = []) ~label name n =
  let cs = Array.make n 0 in
  register t ~labels name (Cs (label, cs));
  cs

let incr_at cs i = cs.(i) <- cs.(i) + 1
let value_at cs i = cs.(i)
let total cs = Array.fold_left ( + ) 0 cs
let reset_counters cs = Array.fill cs 0 (Array.length cs) 0

let gauges t ?(labels = []) ~label name n =
  let gs = Array.make n 0. in
  register t ~labels name (Gs (label, gs));
  gs

let set_gauge_at gs i v = gs.(i) <- v
let gauge_value_at gs i = gs.(i)

let histogram t ?(labels = []) name =
  let h = { buckets = Array.make hbuckets 0; hcount = 0; hsum = 0. } in
  register t ~labels name (H h);
  h

(* Bucket b covers (2^(b-1), 2^b]; everything <= 1 (including
   non-positive values and NaN) lands in bucket 0, and everything past
   the last bound, +infinity included, in the top bucket.  A v > 1 is
   a normal float 1.m * 2^e, read off its bits: it is 2^e exactly when
   its mantissa bits are all 0, and in (2^e, 2^(e+1)) otherwise.
   +infinity has e = 1024 and a zero mantissa. *)
let bucket_of v =
  if not (v > 1.) then 0
  else begin
    let bits = Int64.bits_of_float v in
    let e = Int64.to_int (Int64.shift_right_logical bits 52) - 1023 in
    let b = if Int64.equal (Int64.shift_left bits 12) 0L then e else e + 1 in
    if b >= hbuckets then hbuckets - 1 else b
  end

let observe h v =
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. v

let histogram_count h = h.hcount

(* Bucket b's value range; bucket 0 holds everything at or below 1
   (including non-positive observations), so its lower bound is 0. *)
let bucket_bounds b =
  let upper = Float.pow 2. (float_of_int b) in
  let lower = if b = 0 then 0. else Float.pow 2. (float_of_int (b - 1)) in
  (lower, upper)

let histogram_quantile h q =
  if q < 0. || q > 100. then
    invalid_arg "Metrics.histogram_quantile: q must be in [0, 100]";
  if h.hcount = 0 then 0.
  else begin
    (* Same rank convention as [Stats.percentile]: position
       q/100 * (n-1) in the sorted sample, except the sample is only
       known to bucket resolution — we locate the bucket holding that
       position and interpolate linearly between its bounds. *)
    let r = q /. 100. *. float_of_int (h.hcount - 1) in
    let b = ref 0 and before = ref 0 in
    while !before + h.buckets.(!b) <= int_of_float r && !b < hbuckets - 1 do
      before := !before + h.buckets.(!b);
      b := !b + 1
    done;
    let lower, upper = bucket_bounds !b in
    let nb = h.buckets.(!b) in
    if nb = 0 then upper
    else begin
      let frac = (r -. float_of_int !before) /. float_of_int nb in
      let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
      lower +. (frac *. (upper -. lower))
    end
  end

let reset_histogram h =
  Array.fill h.buckets 0 hbuckets 0;
  h.hcount <- 0;
  h.hsum <- 0.

(* {2 Snapshots} *)

type entry = { name : string; labels : (string * string) list; v : kind }

let key_compare (n1, l1) (n2, l2) =
  match compare (n1 : string) n2 with 0 -> compare (l1 : (string * string) list) l2 | c -> c

let merge_kind a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Histogram h1, Histogram h2 ->
    let tbl = Hashtbl.create 16 in
    let feed (b, n) =
      Hashtbl.replace tbl b (n + Option.value ~default:0 (Hashtbl.find_opt tbl b))
    in
    List.iter feed h1.buckets;
    List.iter feed h2.buckets;
    let buckets =
      List.sort compare (Hashtbl.fold (fun b n acc -> (b, n) :: acc) tbl [])
    in
    Histogram { buckets; count = h1.count + h2.count; sum = h1.sum +. h2.sum }
  | _ ->
    invalid_arg "Metrics: instruments sharing a (name, labels) key have different kinds"

let histogram_kind h =
  let buckets = ref [] in
  for b = hbuckets - 1 downto 0 do
    if h.buckets.(b) > 0 then buckets := (b, h.buckets.(b)) :: !buckets
  done;
  Histogram { buckets = !buckets; count = h.hcount; sum = h.hsum }

(* Every instrument an item holds, as [f name labels value]: one for a
   plain cell, one per index for a family, one per key absorbed. *)
let iter_instruments item f =
  let member label i = canonical_labels ((label, string_of_int i) :: item.i_labels) in
  match item.i_cell with
  | C c -> f item.i_name item.i_labels (Counter c.c)
  | G g -> f item.i_name item.i_labels (Gauge g.g)
  | H h -> f item.i_name item.i_labels (histogram_kind h)
  | Cs (label, cs) -> Array.iteri (fun i n -> f item.i_name (member label i) (Counter n)) cs
  | Gs (label, gs) -> Array.iteri (fun i v -> f item.i_name (member label i) (Gauge v)) gs
  | Absorbed sums -> Hashtbl.iter (fun (name, labels) v -> f name labels v) sums

(* Adds [v] into [key]'s sum in [tbl]. *)
let add_to tbl key v =
  match Hashtbl.find_opt tbl key with
  | None -> Hashtbl.replace tbl key v
  | Some prev -> Hashtbl.replace tbl key (merge_kind prev v)

let snapshot t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun item -> iter_instruments item (fun name labels v -> add_to tbl (name, labels) v))
    t.items;
  Hashtbl.fold (fun (name, labels) v acc -> { name; labels; v } :: acc) tbl []
  |> List.sort (fun a b -> key_compare (a.name, a.labels) (b.name, b.labels))

let length t =
  List.fold_left
    (fun acc item ->
      match item.i_cell with
      | Absorbed sums -> acc + Hashtbl.length sums
      | C _ | G _ | H _ | Cs _ | Gs _ -> acc + 1)
    0 t.items

let rec absorbed = function
  | [] -> None
  | { i_cell = Absorbed sums; _ } :: _ -> Some sums
  | _ :: items -> absorbed items

let absorb t ?(extra_labels = []) entries =
  let sums =
    match absorbed t.items with
    | Some sums -> sums
    | None ->
      let sums = Hashtbl.create 16 in
      t.items <- { i_name = ""; i_labels = []; i_cell = Absorbed sums } :: t.items;
      sums
  in
  List.iter
    (fun e -> add_to sums (e.name, canonical_labels (e.labels @ extra_labels)) e.v)
    entries

let sum_counters entries ?(where = []) name =
  List.fold_left
    (fun acc e ->
      match e.v with
      | Counter n
        when String.equal e.name name
             && List.for_all (fun kv -> List.mem kv e.labels) where ->
        acc + n
      | _ -> acc)
    0 entries

let entry_to_json buf e =
  Buffer.add_string buf "{\"name\":";
  Buffer.add_string buf (Printf.sprintf "%S" e.name);
  if e.labels <> [] then begin
    Buffer.add_string buf ",\"labels\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "%S:%S" k v))
      e.labels;
    Buffer.add_char buf '}'
  end;
  (match e.v with
  | Counter n ->
    Buffer.add_string buf ",\"kind\":\"counter\",\"value\":";
    Buffer.add_string buf (string_of_int n)
  | Gauge v ->
    Buffer.add_string buf ",\"kind\":\"gauge\",\"value\":";
    Buffer.add_string buf (Printf.sprintf "%.6g" v)
  | Histogram { buckets; count; sum } ->
    Buffer.add_string buf
      (Printf.sprintf ",\"kind\":\"histogram\",\"count\":%d,\"sum\":%.6g,\"buckets\":{"
         count sum);
    List.iteri
      (fun i (b, n) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%d\":%d" b n))
      buckets;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_json entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      entry_to_json buf e)
    entries;
  Buffer.add_string buf "]}";
  Buffer.contents buf
