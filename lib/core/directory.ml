open Plookup_util

type t = {
  n : int;
  seed : int;
  default : Service.config;
  obs : Plookup_obs.Obs.t option; (* shared by every per-key service *)
  services : (string, Service.t) Hashtbl.t;
}

let create ?(seed = 0) ?obs ~n ~default () =
  if n <= 0 then invalid_arg "Directory.create: n must be positive";
  { n; seed; default; obs; services = Hashtbl.create 16 }

let n t = t.n

let key_seed t key =
  (* Mix the directory seed with a full-string key digest so per-key
     services have independent yet reproducible randomness.  The digest
     must cover the whole key: [Hashtbl.hash] (used here previously)
     inspects only a bounded prefix, so long keys sharing a prefix all
     collapsed onto the same per-key RNG stream. *)
  let digest = Rng.digest_string key in
  Int64.to_int (Rng.mix64 (Int64.logxor (Int64.of_int t.seed) digest)) land max_int

let create_service t ?config key =
  let config = Option.value config ~default:t.default in
  let service = Service.create ~seed:(key_seed t key) ?obs:t.obs ~n:t.n config in
  Hashtbl.replace t.services key service;
  service

let declare ?config t key =
  if Hashtbl.mem t.services key then
    invalid_arg (Printf.sprintf "Directory.declare: key %S already exists" key);
  ignore (create_service t ?config key)

let mem t key = Hashtbl.mem t.services key

let keys t =
  List.sort compare (Hashtbl.fold (fun key _ acc -> key :: acc) t.services [])

let config_of t key =
  Option.map Service.config (Hashtbl.find_opt t.services key)

let service_of t key = Hashtbl.find_opt t.services key

let find_or_create t key =
  match Hashtbl.find_opt t.services key with
  | Some service -> service
  | None -> create_service t key

let place t ~key entries = Service.place (find_or_create t key) entries
let add t ~key entry = Service.add (find_or_create t key) entry
let delete t ~key entry = Service.delete (find_or_create t key) entry

let partial_lookup ?reachable t ~key target =
  if target <= 0 then invalid_arg "Directory.partial_lookup: t must be positive";
  match Hashtbl.find_opt t.services key with
  | None -> Lookup_result.empty ~target
  | Some service -> Service.partial_lookup ?reachable service target

let partial_lookup_pref ?reachable t ~key ~cost target =
  if target <= 0 then invalid_arg "Directory.partial_lookup_pref: t must be positive";
  match Hashtbl.find_opt t.services key with
  | None -> Lookup_result.empty ~target
  | Some service -> Service.partial_lookup_pref ?reachable service ~cost target

let total_storage t =
  Hashtbl.fold
    (fun _ service acc -> acc + Cluster.total_stored (Service.cluster service))
    t.services 0

let key_count t = Hashtbl.length t.services
