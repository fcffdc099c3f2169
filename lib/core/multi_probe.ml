open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

(* Multi-probe consistent hashing (Appleton & O'Reilly): each server
   gets exactly ONE ring point — no virtual nodes — and the load skew
   that a single-point ring suffers is attacked from the key side
   instead: an entry is hashed k independent times, each probe finds its
   clockwise successor, and the probe that lands {e closest} to a
   server wins.  A server owning a long arc only captures a key when
   all k probes prefer it, so the peak/mean load ratio falls roughly
   like 1 + O(1/k) instead of the O(log n) of one-probe rings — at k
   hash evaluations per lookup and ZERO extra ring memory, which is the
   trade that matters at n=10k (a vnode ring needs n*log n points for
   the same skew).  Replication is Chord-style: y consecutive distinct
   successors starting at the winning server. *)

let ring_size = 1 lsl 30

type t = {
  cluster : Cluster.t;
  y : int;
  k : int;
  points : (int * int) array; (* (ring point, server), sorted by point *)
}

(* Distinct ring points: collisions are re-salted deterministically so
   every cluster seed yields one well-defined ring.  The salt family is
   disjoint from Chord's, so the two strategies use independent rings
   even on the same cluster seed. *)
let ring_points cluster =
  let n = Cluster.n cluster in
  let seed = Cluster.seed cluster in
  let taken = Hashtbl.create n in
  let point_of server =
    let rec probe attempt =
      let p =
        Rng.hash_in_range ~seed ~salt:(0x3B0CE + (attempt * n) + server) ~value:server
          ring_size
      in
      if Hashtbl.mem taken p then probe (attempt + 1)
      else begin
        Hashtbl.replace taken p ();
        p
      end
    in
    probe 0
  in
  let points = Array.init n (fun s -> (point_of s, s)) in
  Array.sort compare points;
  points

let entry_probe t e j =
  Rng.hash_in_range ~seed:(Cluster.seed t.cluster) ~salt:(0x3BD1 + j)
    ~value:(Entry.id e) ring_size

(* Index of the first ring point at or after [p] (clockwise successor),
   wrapping past the top of the ring. *)
let successor_index t p =
  let len = Array.length t.points in
  let rec search lo hi =
    (* smallest i with point(i) >= p, or len *)
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if fst t.points.(mid) >= p then search lo mid else search (mid + 1) hi
    end
  in
  search 0 len mod len

(* The winning probe: the one whose clockwise distance to its successor
   is smallest (ties keep the earliest probe, so the winner is
   deterministic). *)
let home_index t e =
  let best = ref 0 in
  let best_dist = ref max_int in
  for j = 0 to t.k - 1 do
    let p = entry_probe t e j in
    let i = successor_index t p in
    let dist = (fst t.points.(i) - p + ring_size) mod ring_size in
    if dist < !best_dist then begin
      best := i;
      best_dist := dist
    end
  done;
  !best

let servers_of t e =
  let len = Array.length t.points in
  let start = home_index t e in
  List.init (min t.y len) (fun r -> snd t.points.((start + r) mod len))

let send_store t ~src ~dst e =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst (Msg.store e))

let send_remove t ~src ~dst e =
  ignore (Net.send (Cluster.net t.cluster) ~src:(Net.Server src) ~dst (Msg.remove e))

let handle_data t dst _src (msg : Msg.data) : Msg.reply =
  match msg with
  | Msg.Place _ ->
    (* Distribution is driven from [place] below (budget support); the
       request itself reaches one server. *)
    Msg.Ack
  | Msg.Add e ->
    List.iter (fun s -> send_store t ~src:dst ~dst:s e) (servers_of t e);
    Msg.Ack
  | Msg.Delete e ->
    List.iter (fun s -> send_remove t ~src:dst ~dst:s e) (servers_of t e);
    Msg.Ack
  | Msg.Lookup target -> Strategy_common.lookup_reply t.cluster dst target

let create cluster ~y ~k =
  if y < 1 then invalid_arg "Multi_probe.create: y must be at least 1";
  if k < 1 then invalid_arg "Multi_probe.create: k must be at least 1";
  let t = { cluster; y = min y (Cluster.n cluster); k; points = ring_points cluster } in
  Strategy_common.install cluster ~data:(handle_data t);
  t

let y t = t.y

let place ?budget t entries =
  let entries = Entry.dedup entries in
  match Cluster.random_up_server t.cluster with
  | None -> ()
  | Some s ->
    ignore (Net.send (Cluster.net t.cluster) ~src:Net.Client ~dst:s (Msg.place entries));
    let arr = Array.of_list entries in
    let budget = match budget with None -> max_int | Some b -> b in
    let spent = ref 0 in
    (* Round-major: all first copies before any second copy, so a budget
       cut keeps coverage maximal. *)
    for r = 0 to t.y - 1 do
      Array.iter
        (fun e ->
          if !spent < budget then begin
            let owners = servers_of t e in
            match List.nth_opt owners r with
            | Some dst ->
              send_store t ~src:s ~dst e;
              incr spent
            | None -> ()
          end)
        arr
    done

let add t e = Strategy_common.to_random_server t.cluster (Msg.add e)
let delete t e = Strategy_common.to_random_server t.cluster (Msg.delete e)
let partial_lookup ?reachable t target = Probe.random_order ?reachable t.cluster ~t:target

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

module Strategy = struct
  type nonrec t = t

  let meta =
    { Strategy_intf.name = "MultiProbe";
      keys = [ "multiprobe"; "mpch" ];
      arity = 2;
      param_doc = "Y = replicas on consecutive ring successors, K = probe hashes per key";
      storage_doc = "h*min(y,n)";
      ablation = false;
      rank = 80 }

  let split_params = function
    | [ y; k ] when y > 0 && k > 0 -> (y, k)
    | _ -> invalid_arg "MultiProbe: bad parameters (expected [y; k])"

  let analytic_storage ~n ~h ~params =
    let y, _ = split_params params in
    float_of_int (h * min y n)

  let params_for_budget ~n:_ ~h ~total ~params =
    let _, k = split_params params in
    [ max 1 (total / h); k ]

  let create ?resync_stores:_ cluster ~params =
    let y, k = split_params params in
    create cluster ~y ~k

  let place t ?budget entries = place ?budget t entries
  let add = add
  let delete = delete
  let partial_lookup = partial_lookup
  let can_update t = Strategy_common.any_up t.cluster
  let repair_plan t = Strategy_intf.Assigned (fun e -> Some (servers_of t e))
end

let () = Strategy_registry.register (module Strategy)
