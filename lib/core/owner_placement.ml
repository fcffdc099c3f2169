open Plookup_store
module Net = Plookup_net.Net

type t = { cluster : Cluster.t; targets : Entry.t -> int list }

let rec mem (s : int) = function [] -> false | x :: rest -> x = s || mem s rest
let rec has_repeat = function [] -> false | s :: rest -> mem s rest || has_repeat rest

(* Distinct owners in first-occurrence order.  Only Hash-y's targets can
   repeat a server; every other list is returned as it is, so the repair
   daemon's per-tick owner queries allocate nothing extra. *)
let servers_of t e =
  let targets = t.targets e in
  if not (has_repeat targets) then targets
  else
    List.rev
      (List.fold_left (fun acc s -> if mem s acc then acc else s :: acc) [] targets)

let send t ~src ~dst msg =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst msg)

(* One update's messages to its owners, all from one sender value and
   with no closure. *)
let rec send_all net ~src msg = function
  | [] -> ()
  | dst :: rest ->
    ignore (Net.send net ~src ~dst msg);
    send_all net ~src msg rest

let handle_data t dst _src (msg : Msg.data) : Msg.reply =
  match msg with
  | Msg.Place _ ->
    (* Distribution is driven from [place] below (budget support); the
       request itself reaches one server. *)
    Msg.Ack
  | Msg.Add e ->
    send_all (Cluster.net t.cluster) ~src:(Net.Server dst) (Msg.store e) (servers_of t e);
    Msg.Ack
  | Msg.Delete e ->
    send_all (Cluster.net t.cluster) ~src:(Net.Server dst) (Msg.remove e) (servers_of t e);
    Msg.Ack
  | Msg.Lookup target -> Strategy_common.lookup_reply t.cluster dst target

let create cluster ~targets =
  let t = { cluster; targets } in
  Strategy_common.install cluster ~data:(handle_data t);
  t

let place ?budget t entries =
  let entries = Entry.dedup entries in
  match Cluster.random_up_server t.cluster with
  | None -> ()
  | Some s ->
    ignore (Net.send (Cluster.net t.cluster) ~src:Net.Client ~dst:s (Msg.place entries));
    let arr = Array.of_list entries in
    let budget = Option.value budget ~default:max_int in
    let spent = ref 0 in
    (* Round-major: all first copies before any second copy, so a budget
       cut keeps coverage maximal (Fig. 6's "keep a subset").  A target
       repeated by colliding hash functions still costs its message; the
       receiver stores one copy.  Owner functions draw nothing, so each
       round recomputes the targets instead of holding them: holding them
       through a 10k-entry placement raised the peak heap of a
       10k-server run by a quarter.  Round 0 visits every entry unless
       the budget runs out, so it finds the longest target list. *)
    let rounds = ref 1 and r = ref 0 in
    while !r < !rounds do
      Array.iter
        (fun e ->
          if !spent < budget then begin
            let targets = t.targets e in
            if !r = 0 then rounds := Int.max !rounds (List.length targets);
            match List.nth_opt targets !r with
            | Some dst ->
              send t ~src:s ~dst (Msg.store e);
              incr spent
            | None -> ()
          end)
        arr;
      incr r
    done

let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)

let check_invariants t ~placed =
  let n = Cluster.n t.cluster in
  let expected = Array.init n (fun _ -> Hashtbl.create 16) in
  List.iter
    (fun e ->
      List.iter (fun s -> Hashtbl.replace expected.(s) (Entry.id e) ()) (servers_of t e))
    placed;
  let ok = ref (Ok ()) in
  let fail fmt = Format.kasprintf (fun s -> if !ok = Ok () then ok := Error s) fmt in
  for s = 0 to n - 1 do
    let store = Cluster.store t.cluster s in
    Server_store.iter
      (fun e ->
        if not (Hashtbl.mem expected.(s) (Entry.id e)) then
          fail "server %d stores %s not assigned to it" s (Entry.to_string e))
      store;
    Hashtbl.iter
      (fun id () ->
        if not (Server_store.mem store (Entry.v id)) then
          fail "server %d is missing entry v%d" s id)
      expected.(s)
  done;
  !ok

module type PLACEMENT = sig
  val meta : Strategy_intf.meta
  val analytic_storage : n:int -> h:int -> params:int list -> float
  val params_for_budget : n:int -> h:int -> total:int -> params:int list -> int list
  val create : Cluster.t -> params:int list -> t
end

module Strategy (P : PLACEMENT) = struct
  type nonrec t = t

  let meta = P.meta
  let analytic_storage = P.analytic_storage
  let params_for_budget = P.params_for_budget
  let create cluster ~params = P.create cluster ~params
  let place t ?budget entries = place ?budget t entries
  let add = add
  let delete = delete
  let discipline _ = Strategy_intf.Random
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan t = Strategy_intf.Owner_function (servers_of t)
end
