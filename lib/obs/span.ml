type actor = Client | Server of int

type drop_reason = Down | Lost | Shed

type kind =
  | Send of { src : actor; dst : int; plane : string; msg : string }
  | Recv of { src : actor; dst : int; plane : string; msg : string }
  | Drop of { src : actor; dst : int; plane : string; msg : string; reason : drop_reason }
  | Retry of { dst : int; attempt : int }
  | Timeout of { dst : int; after : float }
  | Repair_round of { coordinator : int; tick : int; re_replications : int; trims : int }
  | Migration of { entry : int; src : int; dst : int }
  | Mark of { label : string; detail : string }

type t = { id : int; time : float; cause : int option; kind : kind }

let label t =
  match t.kind with
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Drop _ -> "drop"
  | Retry _ -> "retry"
  | Timeout _ -> "timeout"
  | Repair_round _ -> "repair_round"
  | Migration _ -> "migration"
  | Mark _ -> "mark"

let reason_name = function Down -> "down" | Lost -> "lost" | Shed -> "shed"

let actor_json = function Client -> "-1" | Server i -> string_of_int i

(* Shortest decimal rendering that parses back to exactly [x]: widen the
   precision until the round trip is exact (%.17g always is, so the loop
   terminates — also on nan, via the p = 17 bound). *)
let shortest_roundtrip x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  go 7

(* %.6g keeps typical values short, but must not be trusted blindly:
   past six significant digits (times >= 1e6 sim-ms on long horizons) it
   silently truncates. *)
let float_g6 x =
  let s = Printf.sprintf "%.6g" x in
  if float_of_string s = x then s else shortest_roundtrip x

(* Times are printed with enough digits to round-trip the engine's
   float clock. *)
let add_float buf x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" x)
  else Buffer.add_string buf (float_g6 x)

let add_json buf t =
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (string_of_int t.id);
  Buffer.add_string buf ",\"t\":";
  add_float buf t.time;
  (match t.cause with
  | Some c ->
    Buffer.add_string buf ",\"cause\":";
    Buffer.add_string buf (string_of_int c)
  | None -> ());
  Buffer.add_string buf ",\"kind\":\"";
  Buffer.add_string buf (label t);
  Buffer.add_string buf "\"";
  let field k v =
    Buffer.add_string buf ",\"";
    Buffer.add_string buf k;
    Buffer.add_string buf "\":";
    Buffer.add_string buf v
  in
  let str k v = field k (Printf.sprintf "%S" v) in
  (match t.kind with
  | Send { src; dst; plane; msg } | Recv { src; dst; plane; msg } ->
    field "src" (actor_json src);
    field "dst" (string_of_int dst);
    str "plane" plane;
    str "msg" msg
  | Drop { src; dst; plane; msg; reason } ->
    field "src" (actor_json src);
    field "dst" (string_of_int dst);
    str "plane" plane;
    str "msg" msg;
    str "reason" (reason_name reason)
  | Retry { dst; attempt } ->
    field "dst" (string_of_int dst);
    field "attempt" (string_of_int attempt)
  | Timeout { dst; after } ->
    field "dst" (string_of_int dst);
    field "after" (float_g6 after)
  | Repair_round { coordinator; tick; re_replications; trims } ->
    field "coordinator" (string_of_int coordinator);
    field "tick" (string_of_int tick);
    field "re_replications" (string_of_int re_replications);
    field "trims" (string_of_int trims)
  | Migration { entry; src; dst } ->
    field "entry" (string_of_int entry);
    field "src" (string_of_int src);
    field "dst" (string_of_int dst)
  | Mark { label; detail } ->
    str "label" label;
    str "detail" detail);
  Buffer.add_char buf '}'

let to_json t =
  let buf = Buffer.create 128 in
  add_json buf t;
  Buffer.contents buf

let pp_actor ppf = function
  | Client -> Format.pp_print_string ppf "client"
  | Server i -> Format.fprintf ppf "server %d" i

let pp ppf t =
  Format.fprintf ppf "[%10.3f] #%-6d %-12s" t.time t.id (label t);
  (match t.cause with Some c -> Format.fprintf ppf " <-#%d" c | None -> ());
  match t.kind with
  | Send { src; dst; plane; msg } ->
    Format.fprintf ppf " %a -> %d %s/%s" pp_actor src dst plane msg
  | Recv { src; dst; plane; msg } ->
    Format.fprintf ppf " %a => %d %s/%s" pp_actor src dst plane msg
  | Drop { src; dst; plane; msg; reason } ->
    Format.fprintf ppf " %a -x %d %s/%s (%s)" pp_actor src dst plane msg
      (reason_name reason)
  | Retry { dst; attempt } -> Format.fprintf ppf " -> %d (attempt %d)" dst attempt
  | Timeout { dst; after } -> Format.fprintf ppf " -> %d after %.3g" dst after
  | Repair_round { coordinator; tick; re_replications; trims } ->
    Format.fprintf ppf " coordinator %d tick %d: %d re-replications, %d trims" coordinator
      tick re_replications trims
  | Migration { entry; src; dst } ->
    Format.fprintf ppf " entry %d: %d -> %d" entry src dst
  | Mark { label; detail } -> Format.fprintf ppf " %-16s %s" label detail
