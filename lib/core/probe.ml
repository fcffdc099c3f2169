open Plookup_util
module Net = Plookup_net.Net

(* Send one Lookup and merge the distinct answers. *)
let contact cluster ~t answers server =
  match Net.send (Cluster.net cluster) ~src:Net.Client ~dst:server (Msg.lookup t) with
  | Some (Msg.Entries entries) ->
    Answer_set.add answers entries;
    true
  | Some (Msg.Ack | Msg.Candidate _ | Msg.Digest _ | Msg.Busy) | None -> false

(* The client delivers exactly [target] entries when it collected more:
   merging answers from multiple servers overshoots, and returning the
   whole union would systematically over-deliver every entry (it would
   also make the unfairness metric reflect overshoot rather than bias).
   The kept subset is uniform over everything collected. *)
let result_of cluster answers ~contacted ~target =
  { Lookup_result.entries = Answer_set.pick answers ~rng:(Cluster.rng cluster) ~target;
    servers_contacted = contacted;
    target }

(* The cluster's one answer set, emptied for a new lookup. *)
let fresh_answers cluster =
  let answers = Cluster.answers cluster in
  Answer_set.reset answers;
  answers

(* The k-th smallest reachable up server, for a random [k] below their
   count — one draw, the same one (and the same server) as indexing the
   ascending array of reachable up servers.  Without a predicate this is
   a rank select; with one, an O(n) scan. *)
let random_reachable ?reachable cluster =
  match reachable with
  | None -> Cluster.random_up_server cluster
  | Some ok ->
    let n = Cluster.n cluster in
    let usable i = Cluster.is_up cluster i && ok i in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if usable i then incr count
    done;
    if !count = 0 then None
    else begin
      let k = ref (Rng.int (Cluster.rng cluster) !count) in
      let i = ref 0 in
      while not (usable !i && !k = 0) do
        if usable !i then decr k;
        incr i
      done;
      Some !i
    end

(* Walk [order] until [t] distinct entries are in hand; the order is
   generated only as far as the walk gets. *)
let probe_order cluster ~t order =
  let answers = fresh_answers cluster in
  let contacted = ref 0 in
  let rec walk () =
    if Answer_set.length answers < t then
      match Probe_order.next order with
      | Some server ->
        if contact cluster ~t answers server then incr contacted;
        walk ()
      | None -> ()
  in
  walk ();
  result_of cluster answers ~contacted:!contacted ~target:t

(* Whether every server is up and reachable, the condition for following
   the stride: O(1) without [reachable], an O(n) scan with it. *)
let all_usable ?reachable cluster =
  let n = Cluster.n cluster in
  Cluster.up_count cluster = n
  &&
  match reachable with
  | None -> true
  | Some ok ->
    let rec from i = i >= n || (ok i && from (i + 1)) in
    from 0

let lookup ?reachable cluster (discipline : Strategy_intf.discipline) ~t =
  if t <= 0 then invalid_arg "Probe.lookup: t must be positive";
  match discipline with
  | One_server -> (
    match random_reachable ?reachable cluster with
    | None -> Lookup_result.empty ~target:t
    | Some server -> (
      (* One store's answer is distinct and at most [t] long, so merging
         it would keep it whole, in order, with no draw: it is the
         result as it stands. *)
      match Net.send (Cluster.net cluster) ~src:Net.Client ~dst:server (Msg.lookup t) with
      | Some (Msg.Entries entries) -> { Lookup_result.entries; servers_contacted = 1; target = t }
      | Some (Msg.Ack | Msg.Candidate _ | Msg.Digest _ | Msg.Busy) | None ->
        Lookup_result.empty ~target:t))
  | Random -> probe_order cluster ~t (Probe_order.random_up ?keep:reachable cluster)
  | Stride step ->
    let n = Cluster.n cluster in
    (* Drawn even when failures make the lookup fall back to random
       order. *)
    let start = Rng.int (Cluster.rng cluster) n in
    let order =
      if all_usable ?reachable cluster then Probe_order.stride ~n ~start ~step
      else
        (* Failures (or restricted reachability): random order, per the
           paper. *)
        Probe_order.random_up ?keep:reachable cluster
    in
    probe_order cluster ~t order

let order_list (discipline : Strategy_intf.discipline) rng ~n =
  match discipline with
  | One_server | Random -> Array.to_list (Rng.perm rng n)
  | Stride step -> Probe_order.to_list (Probe_order.stride ~n ~start:(Rng.int rng n) ~step)
