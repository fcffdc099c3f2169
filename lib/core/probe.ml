open Plookup_store
open Plookup_util
module Net = Plookup_net.Net

(* Send one Lookup and merge the distinct answers into [seen]. *)
let contact cluster ~t ~seen server =
  match Net.send (Cluster.net cluster) ~src:Net.Client ~dst:server (Msg.lookup t) with
  | Some (Msg.Entries entries) ->
    List.iter
      (fun e -> if not (Hashtbl.mem seen (Entry.id e)) then Hashtbl.add seen (Entry.id e) e)
      entries;
    true
  | Some (Msg.Ack | Msg.Candidate _ | Msg.Digest _ | Msg.Busy) | None -> false

(* The client delivers exactly [target] entries when it collected more:
   merging answers from multiple servers overshoots, and returning the
   whole union would systematically over-deliver every entry (it would
   also make the unfairness metric reflect overshoot rather than bias).
   The kept subset is uniform over everything collected.

   The table is drained into an array sized by [Hashtbl.length], filled
   back-to-front so the element order — and therefore the [Rng.sample]
   result — is identical to the old fold-to-list / [Array.of_list]
   round-trip this replaces. *)
let pick_from_table seen ~rng ~target =
  let len = Hashtbl.length seen in
  if len = 0 then []
  else begin
    let arr = Array.make len (Entry.v 0) in
    let i = ref len in
    Hashtbl.iter
      (fun _ e ->
        decr i;
        arr.(!i) <- e)
      seen;
    if len <= target then Array.to_list arr
    else Array.to_list (Rng.sample rng arr target)
  end

let result_of cluster seen ~contacted ~target =
  { Lookup_result.entries = pick_from_table seen ~rng:(Cluster.rng cluster) ~target;
    servers_contacted = contacted;
    target }

(* The k-th smallest reachable up server, for a random [k] below their
   count — one draw, the same one (and the same server) as indexing the
   ascending array of reachable up servers.  Without a predicate this is
   an O(log n) rank select; with one, an O(n) scan. *)
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

let single ?reachable cluster ~t =
  match random_reachable ?reachable cluster with
  | None -> Lookup_result.empty ~target:t
  | Some server ->
    let seen = Hashtbl.create 16 in
    let answered = contact cluster ~t ~seen server in
    result_of cluster seen ~contacted:(if answered then 1 else 0) ~target:t

(* Walk [order] until [t] distinct entries are in hand; the order is
   generated only as far as the walk gets. *)
let probe_order cluster ~t order =
  let seen = Hashtbl.create 16 in
  let contacted = ref 0 in
  let rec walk () =
    if Hashtbl.length seen < t then
      match Probe_order.next order with
      | Some server ->
        if contact cluster ~t ~seen server then incr contacted;
        walk ()
      | None -> ()
  in
  walk ();
  result_of cluster seen ~contacted:!contacted ~target:t

let random_order ?reachable cluster ~t =
  probe_order cluster ~t (Probe_order.random_up ?keep:reachable cluster)

let all_usable ?reachable cluster =
  let n = Cluster.n cluster in
  Cluster.up_count cluster = n
  &&
  match reachable with
  | None -> true
  | Some ok ->
    let rec from i = i >= n || (ok i && from (i + 1)) in
    from 0

let stride ?reachable cluster ~start ~step ~t =
  let n = Cluster.n cluster in
  let order =
    if all_usable ?reachable cluster then Probe_order.stride ~n ~start ~step
    else
      (* Failures (or restricted reachability): random order, per the
         paper. *)
      Probe_order.random_up ?keep:reachable cluster
  in
  probe_order cluster ~t order
