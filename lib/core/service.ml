
open Plookup_util

(* A config is a reference into the strategy registry plus parameters —
   a plain comparable value (tests and experiments compare and hash
   them), resolved to a packed (module Strategy_intf.S) at create
   time.  Keeping it name-based is what lets a new strategy module
   (e.g. {!Ring}) register itself without this file changing. *)
type config = { c_kind : string; c_params : int list }

let kind config = config.c_kind
let params config = config.c_params

let config_name { c_kind; c_params } =
  match c_params with
  | [] -> c_kind
  | [ p ] -> Printf.sprintf "%s-%d" c_kind p
  | [ p; q ] -> Printf.sprintf "%s-%dx%d" c_kind p q
  | ps -> c_kind ^ "-" ^ String.concat "x" (List.map string_of_int ps)

(* Convenience constructors for the built-in strategies.  These are
   spellings, not a strategy list: parsing and enumeration go through
   the registry. *)
let check_positive who ps =
  List.iter
    (fun p -> if p <= 0 then invalid_arg (Printf.sprintf "Service.%s: parameter must be positive" who))
    ps

let v ~kind ~params =
  check_positive "v" params;
  { c_kind = kind; c_params = params }

let full_replication = { c_kind = "FullReplication"; c_params = [] }
let fixed x = v ~kind:"Fixed" ~params:[ x ]
let random_server x = v ~kind:"RandomServer" ~params:[ x ]
let random_server_replacing x = v ~kind:"RandomServerReplacing" ~params:[ x ]
let round_robin y = v ~kind:"RoundRobin" ~params:[ y ]
let round_robin_replicated y k = v ~kind:"RoundRobinHA" ~params:[ y; k ]
let hash y = v ~kind:"Hash" ~params:[ y ]

let config_of_string s =
  match Strategy_registry.parse s with
  | Ok (kind, params) -> Ok { c_kind = kind; c_params = params }
  | Error _ as e -> e

let resolve config = Strategy_registry.find_exn config.c_kind

let param config = match config.c_params with [] -> None | p :: _ -> Some p

let storage_for_budget config ~n ~h ~total =
  if n <= 0 || h <= 0 || total <= 0 then
    invalid_arg "Service.storage_for_budget: n, h, total must be positive";
  let (module S) = resolve config in
  { config with c_params = S.params_for_budget ~n ~h ~total ~params:config.c_params }

let analytic_storage config ~n ~h =
  if n <= 0 || h <= 0 then invalid_arg "Service.analytic_storage: n and h must be positive";
  let (module S) = resolve config in
  S.analytic_storage ~n ~h ~params:config.c_params

let storage_formula config =
  let (module S) = resolve config in
  S.meta.Strategy_intf.storage_doc

(* Default parameters a strategy takes into [storage_for_budget] when
   enumerating comparison tables: the budget fills the primary
   parameter; a secondary one (RoundRobinHA's k) defaults to 2 so the
   ablation actually replicates. *)
let seed_params (m : Strategy_intf.meta) =
  match m.arity with 0 -> [] | 1 -> [ 1 ] | _ -> [ 1; 2 ]

let all_configs ?(ablations = false) ~budget ~n ~h () =
  List.filter_map
    (fun (module S : Strategy_intf.S) ->
      let m = S.meta in
      if m.Strategy_intf.ablation && not ablations then None
      else
        Some
          (storage_for_budget
             { c_kind = m.Strategy_intf.name; c_params = seed_params m }
             ~n ~h ~total:budget))
    (Strategy_registry.all ())

(* One running strategy instance, existentially packed. *)
type instance = I : (module Strategy_intf.S with type t = 'a) * 'a -> instance

type t = {
  cluster : Cluster.t;
  config : config;
  instance : instance;
  discipline : Strategy_intf.discipline;
  repair : Repair.t option;
}

let of_cluster ?(repair = Repair.disabled) cluster config =
  let (module S) = resolve config in
  let s = S.create cluster ~params:config.c_params in
  let rep =
    if repair.Repair.mode = Repair.Off then None
    else Some (Repair.install cluster ~config:repair ~plan:(S.repair_plan s))
  in
  { cluster; config; instance = I ((module S), s); discipline = S.discipline s; repair = rep }

let create ?seed ?obs ?repair ~n config =
  of_cluster ?repair (Cluster.create ?seed ?obs ~n ()) config

let cluster t = t.cluster
let config t = t.config
let name t = config_name t.config
let n t = Cluster.n t.cluster
let repair t = t.repair
let discipline t = t.discipline

let place ?budget t entries =
  match t.instance with I ((module S), s) -> S.place s ?budget entries

let add t e = match t.instance with I ((module S), s) -> S.add s e
let delete t e = match t.instance with I ((module S), s) -> S.delete s e

let partial_lookup ?reachable t target = Probe.lookup ?reachable t.cluster t.discipline ~t:target

let can_update t = match t.instance with I ((module S), s) -> S.can_update s

let partial_lookup_pref ?reachable t ~cost target =
  if target <= 0 then invalid_arg "Service.partial_lookup_pref: t must be positive";
  (* Exhaustive probe: demand more entries than any server set can hold
     so the prober visits every reachable server, then rank. *)
  let exhaustive = partial_lookup ?reachable t max_int in
  let ranked =
    List.sort (fun a b -> Float.compare (cost a) (cost b)) exhaustive.Lookup_result.entries
  in
  { Lookup_result.entries = List_util.take target ranked;
    servers_contacted = exhaustive.Lookup_result.servers_contacted;
    target }
