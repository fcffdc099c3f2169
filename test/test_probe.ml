open Plookup
open Plookup_store
module Net = Plookup_net.Net
module Rng = Plookup_util.Rng

(* A cluster whose servers are pre-loaded by hand and answer lookups
   directly, so probing behaviour can be tested in isolation. *)
let manual_cluster ~n placement =
  let cluster = Cluster.create ~seed:11 ~n () in
  List.iteri
    (fun server ids ->
      List.iter
        (fun i -> ignore (Server_store.add (Cluster.store cluster server) (Entry.v i)))
        ids)
    placement;
  Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
      match (msg : Msg.t) with
      | Msg.Data (Msg.Lookup t) ->
        Msg.Entries
          (Cluster.pick cluster dst t)
      | _ -> Msg.Ack);
  cluster

let test_single_contacts_one () =
  let cluster = manual_cluster ~n:3 [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] ] in
  let r = Probe.lookup cluster Strategy_intf.One_server ~t:2 in
  Helpers.check_int "one server" 1 r.Lookup_result.servers_contacted;
  Helpers.check_int "two entries" 2 (Lookup_result.count r);
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied r)

let test_single_no_retry () =
  (* The single probe does not retry even if the answer is short. *)
  let cluster = manual_cluster ~n:2 [ [ 0 ]; [ 0; 1; 2 ] ] in
  let shorts = ref 0 in
  for _ = 1 to 50 do
    let r = Probe.lookup cluster Strategy_intf.One_server ~t:3 in
    Helpers.check_int "always one server" 1 r.Lookup_result.servers_contacted;
    if not (Lookup_result.satisfied r) then incr shorts
  done;
  Alcotest.(check bool) "sometimes lands on the small server" true (!shorts > 0)

let test_single_all_down () =
  let cluster = manual_cluster ~n:2 [ [ 0 ]; [ 1 ] ] in
  Cluster.fail cluster 0;
  Cluster.fail cluster 1;
  let r = Probe.lookup cluster Strategy_intf.One_server ~t:1 in
  Helpers.check_int "no server" 0 r.Lookup_result.servers_contacted;
  Helpers.check_int "no entries" 0 (Lookup_result.count r)

let test_random_order_merges () =
  (* Each server has 2 entries; target 6 requires visiting all three. *)
  let cluster = manual_cluster ~n:3 [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] in
  let r = Probe.lookup cluster Strategy_intf.Random ~t:6 in
  Helpers.check_int "three servers" 3 r.Lookup_result.servers_contacted;
  Alcotest.(check (list int)) "all entries" [ 0; 1; 2; 3; 4; 5 ]
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_random_order_stops_early () =
  let cluster = manual_cluster ~n:3 [ [ 0; 1; 2 ]; [ 0; 1; 2 ]; [ 0; 1; 2 ] ] in
  let r = Probe.lookup cluster Strategy_intf.Random ~t:2 in
  Helpers.check_int "one server suffices" 1 r.Lookup_result.servers_contacted

let test_random_order_exhausts_unsatisfied () =
  let cluster = manual_cluster ~n:2 [ [ 0 ]; [ 0 ] ] in
  let r = Probe.lookup cluster Strategy_intf.Random ~t:5 in
  Helpers.check_int "tried everyone" 2 r.Lookup_result.servers_contacted;
  Alcotest.(check bool) "unsatisfied" false (Lookup_result.satisfied r);
  Helpers.check_int "coverage-limited answer" 1 (Lookup_result.count r)

let test_truncation_to_target () =
  (* Merging two disjoint 5-entry servers for t=6 collects up to 10; the
     delivered answer must be exactly 6. *)
  let cluster = manual_cluster ~n:2 [ [ 0; 1; 2; 3; 4 ]; [ 5; 6; 7; 8; 9 ] ] in
  for _ = 1 to 20 do
    let r = Probe.lookup cluster Strategy_intf.Random ~t:6 in
    Helpers.check_int "exactly t entries" 6 (Lookup_result.count r)
  done

let test_reachable_filter () =
  let cluster = manual_cluster ~n:3 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let reachable s = s <> 1 in
  for _ = 1 to 30 do
    let r = Probe.lookup ~reachable cluster Strategy_intf.Random ~t:3 in
    Alcotest.(check bool) "entry 1 never seen" false
      (List.exists (fun e -> Entry.id e = 1) r.Lookup_result.entries)
  done

(* The start a [Stride] lookup on [cluster] is about to draw. *)
let next_start cluster = Rng.int (Rng.copy (Cluster.rng cluster)) (Cluster.n cluster)

let test_stride_visits_disjoint_servers () =
  (* n=4, step 2: from start s the stride visits s, s+2 then falls back
     to the remaining servers. *)
  let cluster = manual_cluster ~n:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let s = next_start cluster in
  let r = Probe.lookup cluster (Strategy_intf.Stride 2) ~t:2 in
  Helpers.check_int "two strided servers" 2 r.Lookup_result.servers_contacted;
  Alcotest.(check (list int)) "entries from s and s+2"
    (List.sort compare [ s; (s + 2) mod 4 ])
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_stride_extends_past_cycle () =
  (* gcd(step, n) > 1 leaves residues unvisited; the probe must extend to
     them rather than loop. *)
  let cluster = manual_cluster ~n:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let r = Probe.lookup cluster (Strategy_intf.Stride 2) ~t:4 in
  Helpers.check_int "all four" 4 r.Lookup_result.servers_contacted;
  Alcotest.(check (list int)) "full coverage" [ 0; 1; 2; 3 ]
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_stride_falls_back_on_failure () =
  let cluster = manual_cluster ~n:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  Cluster.fail cluster 2;
  let r = Probe.lookup cluster (Strategy_intf.Stride 2) ~t:3 in
  Alcotest.(check bool) "satisfied without server 2" true (Lookup_result.satisfied r);
  Alcotest.(check bool) "no entry from the dead server" false
    (List.exists (fun e -> Entry.id e = 2) r.Lookup_result.entries)

let test_stride_negative_step () =
  (* Regression: OCaml's sign-preserving [mod] walked the position
     negative and crashed the visited-array access. *)
  let cluster = manual_cluster ~n:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  let s = next_start cluster in
  let r = Probe.lookup cluster (Strategy_intf.Stride (-1)) ~t:3 in
  Alcotest.(check bool) "satisfied" true (Lookup_result.satisfied r);
  (* step -1 walks s, s-1, s-2, ... *)
  Alcotest.(check (list int)) "walks backwards"
    (List.sort compare (List.map (fun k -> (s + 4 - k) mod 4) [ 0; 1; 2 ]))
    (Helpers.sorted_ids r.Lookup_result.entries)

let test_stride_step_multiple_of_n () =
  (* step = 0 (mod n) degenerates to the start residue; the probe must
     extend to the rest instead of looping or stalling short. *)
  let cluster = manual_cluster ~n:4 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] in
  List.iter
    (fun step ->
      let r = Probe.lookup cluster (Strategy_intf.Stride step) ~t:4 in
      Helpers.check_int
        (Printf.sprintf "full coverage at step %d" step)
        4
        (Lookup_result.count r))
    [ 0; 4; 8; -4 ]

let prop_stride_total_for_any_step =
  Helpers.qcheck ~count:300 "stride handles any integer start/step without raising"
    QCheck2.Gen.(triple (int_range (-50) 50) (int_range (-50) 50) (int_range 1 5))
    (fun (start, step, t) ->
      let cluster = manual_cluster ~n:5 [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ] in
      let r = Probe.lookup cluster (Strategy_intf.Stride step) ~t in
      (* One entry per server, so a target of t needs exactly t contacts
         and full coverage is always reachable.  The lookup draws its own
         start; the cursor takes any integer one. *)
      Lookup_result.count r = t
      && r.Lookup_result.servers_contacted = t
      && List.sort compare (Probe_order.to_list (Probe_order.stride ~n:5 ~start ~step))
         = [ 0; 1; 2; 3; 4 ])

let test_each_contact_counts_a_message () =
  let cluster = manual_cluster ~n:3 [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ] in
  Net.reset_counters (Cluster.net cluster);
  let r = Probe.lookup cluster Strategy_intf.Random ~t:6 in
  Helpers.check_int "messages = contacts" r.Lookup_result.servers_contacted
    (Net.messages_received (Cluster.net cluster))

(* {2 The answer set} *)

(* [manual_cluster], but every answer is also recorded in [heard]. *)
let recording_cluster ~n placement heard =
  let cluster = manual_cluster ~n placement in
  Net.set_handler (Cluster.net cluster) (fun dst _src msg ->
      match (msg : Msg.t) with
      | Msg.Data (Msg.Lookup t) ->
        let answer =
          Cluster.pick cluster dst t
        in
        List.iter (fun e -> Hashtbl.replace heard (Entry.id e) ()) answer;
        Msg.Entries answer
      | _ -> Msg.Ack);
  cluster

let prop_results_come_from_answers =
  Helpers.qcheck ~count:300 "results are distinct answered entries, min(t, merged) of them"
    QCheck2.Gen.(
      triple (list_size (int_range 1 6) (list_size (int_range 0 12) (int_bound 19)))
        (int_range 1 15) bool)
    (fun (placement, t, use_stride) ->
      let heard = Hashtbl.create 32 in
      let n = List.length placement in
      let cluster = recording_cluster ~n placement heard in
      let r =
        Probe.lookup cluster
          (if use_stride then Strategy_intf.Stride 1 else Strategy_intf.Random)
          ~t
      in
      let ids = List.map Entry.id r.Lookup_result.entries in
      List.length (List.sort_uniq compare ids) = List.length ids
      && List.for_all (Hashtbl.mem heard) ids
      && List.length ids = min t (Hashtbl.length heard))

let test_kept_set_uniform () =
  (* Each store holds no more than t entries, so every answer is the
     whole store and the stride reaches both servers from either start:
     the merged union is always ids 0..5, and past the start only the
     truncation draws. *)
  List.iter
    (fun (placement, t) ->
      let cluster = manual_cluster ~n:2 placement in
      Helpers.uniform_over_subsets ~what:(Printf.sprintf "t=%d" t) ~n:6 ~k:t ~trials:6000
        (fun () ->
          List.map Entry.id
            (Probe.lookup cluster (Strategy_intf.Stride 1) ~t).Lookup_result.entries))
    [ ([ [ 0; 1; 2 ]; [ 3; 4; 5 ] ], 4); ([ [ 0; 1; 2; 3 ]; [ 2; 3; 4; 5 ] ], 5) ]

let test_answer_set_after_pref () =
  (* An exhaustive preference lookup merges all 1,000 entries into the
     cluster's set; the next lookup must answer correctly from a set
     back at its default size. *)
  let service, batch = Helpers.placed_service ~n:10 ~h:1000 (Service.hash 2) in
  let answers = Cluster.answers (Service.cluster service) in
  let default = Answer_set.capacity (Answer_set.create ()) in
  let pref =
    Service.partial_lookup_pref service ~cost:(fun e -> float_of_int (Entry.id e)) 35
  in
  Alcotest.(check (list int)) "the 35 cheapest" (List.init 35 Fun.id)
    (Helpers.sorted_ids pref.Lookup_result.entries);
  Alcotest.(check bool) "grew past four times the default" true
    (Answer_set.capacity answers > 4 * default);
  let live = Hashtbl.create 1000 in
  List.iter (fun e -> Hashtbl.replace live (Entry.id e) ()) batch;
  for _ = 1 to 20 do
    let r = Service.partial_lookup service 35 in
    let ids = Helpers.sorted_ids r.Lookup_result.entries in
    Helpers.check_int "35 entries" 35 (List.length (List.sort_uniq compare ids));
    Alcotest.(check bool) "all live" true (List.for_all (Hashtbl.mem live) ids);
    Helpers.check_int "back at the default size" default (Answer_set.capacity answers)
  done

let prop_answer_set_matches_model =
  (* Batches of ids (some repeated, some huge) with resets in between:
     the set keeps the first occurrence of each id in arrival order, as
     a list model does, through growth and shrinking. *)
  Helpers.qcheck ~count:300 "answer set keeps first occurrences in arrival order"
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 1 6)
           (list_size (int_range 0 300) (oneof [ int_bound 400; int_range 0 max_int ]))))
    (fun (expect, lookups) ->
      let set = Answer_set.create ~expect () in
      List.for_all
        (fun ids ->
          Answer_set.reset set;
          let model = ref [] in
          List.iter
            (fun id ->
              Answer_set.add set [ Entry.v id ];
              if not (List.mem id !model) then model := id :: !model)
            ids;
          let want = List.rev !model in
          Answer_set.length set = List.length want
          && List.map Entry.id
               (Answer_set.pick set ~rng:(Plookup_util.Rng.create 1) ~target:max_int)
             = want)
        lookups)

(* Asynchronous lookups' buffers and the synchronous client merging
   through one cluster's table, interleaved at random. *)
type table_op =
  | Merge of int * int list (* one reply's ids, to lookup [i] *)
  | Finish of int * int (* lookup [i] picks at a target; a new one takes its place *)
  | Sync of int list list (* a synchronous lookup's replies *)
  | Exhaustive of int (* a synchronous lookup of this many distinct ids *)

let prop_one_table_for_every_lookup =
  (* Replies repeat ids within and across themselves; a few merges take
     a buffer past 64 distinct ids, so buffer and table both grow; a
     synchronous lookup resets the table between two merges of a
     buffer; an exhaustive one grows the set past four times its
     default, and the reset after it shrinks the table. *)
  Helpers.qcheck ~count:300 "async buffers and the sync set share one id table"
    QCheck2.Gen.(
      let* lookups = int_range 1 4 in
      let id = frequency [ (3, int_bound 30); (3, int_bound 400); (1, int_range 0 max_int) ] in
      let reply = list_size (int_range 0 40) id in
      let op =
        frequency
          [ (8, map2 (fun i r -> Merge (i, r)) (int_bound (lookups - 1)) reply);
            (2, map2 (fun i t -> Finish (i, t)) (int_bound (lookups - 1)) (int_range 1 80));
            (2, map (fun rs -> Sync rs) (list_size (int_range 1 3) reply));
            (1, map (fun m -> Exhaustive m) (int_range 257 1000)) ]
      in
      triple (return lookups) (list_size (int_range 1 60) op) int)
    (fun (lookups, ops, seed) ->
      let set = Cluster.answers (Cluster.create ~n:1 ()) in
      let default = Answer_set.capacity set in
      let ids_of = List.map Entry.id and entries = List.map Entry.v in
      (* First arrivals, newest first. *)
      let note model ids =
        List.iter (fun id -> if not (List.mem id !model) then model := id :: !model) ids
      in
      (* A lookup: its buffer, its replies and its first arrivals. *)
      let fresh _ = (Answer_set.Buffer.create ~expect:35, ref [], ref []) in
      let live = Array.init lookups fresh in
      let finish i target =
        let buffer, replies, model = live.(i) in
        live.(i) <- fresh ();
        (* At a target of at least its length a pick draws nothing and
           leaves the buffer in arrival order, so the real pick follows. *)
        let arrived =
          ids_of (Answer_set.Buffer.pick buffer ~rng:(Rng.create seed) ~target:max_int)
        in
        let own = Answer_set.create ~expect:(min target 64) () in
        List.iter (fun ids -> Answer_set.add own (entries ids)) (List.rev !replies);
        let rng = Rng.create seed and own_rng = Rng.create seed in
        let got = ids_of (Answer_set.Buffer.pick buffer ~rng ~target) in
        (Answer_set.Buffer.length buffer = List.length !model
        && arrived = List.rev !model
        && got = ids_of (Answer_set.pick own ~rng:own_rng ~target)
        && Rng.bits64 rng = Rng.bits64 own_rng)
        || QCheck2.Test.fail_reportf "lookup %d differs from a set of its own" i
      in
      let step = function
        | Merge (i, ids) ->
          let buffer, replies, model = live.(i) in
          Answer_set.Buffer.merge set buffer (entries ids);
          replies := ids :: !replies;
          note model ids;
          Answer_set.Buffer.length buffer = List.length !model
        | Finish (i, target) -> finish i target
        | Sync replies ->
          let model = ref [] in
          Answer_set.reset set;
          List.iter
            (fun ids ->
              Answer_set.add set (entries ids);
              note model ids)
            replies;
          ids_of (Answer_set.pick set ~rng:(Rng.create seed) ~target:max_int) = List.rev !model
        | Exhaustive m ->
          Answer_set.reset set;
          Answer_set.add set (entries (List.init m (fun i -> 1_000 + i)));
          let grown = Answer_set.length set = m && Answer_set.capacity set > 4 * default in
          Answer_set.reset set;
          grown && Answer_set.capacity set = default
      in
      List.for_all step ops && List.for_all (fun i -> finish i 35) (List.init lookups Fun.id))

let prop_never_exceeds_target =
  Helpers.qcheck "delivered entries never exceed the target"
    QCheck2.Gen.(pair (int_range 1 12) int)
    (fun (t, seed) ->
      ignore seed;
      let cluster = manual_cluster ~n:3 [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 8; 9 ] ] in
      let r = Probe.lookup cluster Strategy_intf.Random ~t in
      Lookup_result.count r <= t)

(* {2 Probe_order cursors} *)

(* A cluster of [n] servers with [down] failed; no handler is needed,
   the cursors only read membership. *)
let cluster_with_down ~seed ~n down =
  let cluster = Cluster.create ~seed ~n () in
  List.iter (Cluster.fail cluster) down;
  cluster

let prop_random_up_is_permutation =
  Helpers.qcheck ~count:300 "drained random cursor is a permutation of the reachable up servers"
    QCheck2.Gen.(
      triple (int_range 1 40) (list_size (int_range 0 40) (int_bound 39)) (pair int int))
    (fun (n, down, (seed, mask)) ->
      let down = List.filter (fun s -> s < n) down in
      let cluster = cluster_with_down ~seed ~n down in
      let keep s = (mask lsr (s mod 60)) land 1 = 1 || s mod 3 = 0 in
      let got = Probe_order.to_list (Probe_order.random_up ~keep cluster) in
      let want = List.filter (fun s -> Cluster.is_up cluster s && keep s) (List.init n Fun.id) in
      List.sort compare got = want)

(* The random cursor as it reads on paper: a forward Fisher–Yates over
   an explicit array of the up servers' ranks.  Step i swaps slot i with
   a uniform slot in [i, m) and yields the server holding the new slot
   i's rank, if [keep] accepts it. *)
let reference_random_up rng cluster ~keep =
  let ids = Array.of_list (Cluster.up_servers cluster) in
  let m = Array.length ids in
  let ranks = Array.init m Fun.id in
  let order = ref [] in
  for i = 0 to m - 1 do
    let j = if m - i > 1 then i + Rng.int rng (m - i) else i in
    let tmp = ranks.(i) in
    ranks.(i) <- ranks.(j);
    ranks.(j) <- tmp;
    let id = ids.(ranks.(i)) in
    if keep id then order := id :: !order
  done;
  List.rev !order

let prop_random_up_matches_fisher_yates =
  Helpers.qcheck ~count:150 "random cursor is a forward Fisher-Yates over the up ranks"
    QCheck2.Gen.(
      quad
        (oneof [ int_range 1 40; int_range 1 4096 ])
        (pair int (oneofl [ 0.; 0.1; 0.5; 0.9 ]))
        (opt int) int)
    (fun (n, (seed, down_rate), mask, walks) ->
      let pick = Rng.create seed in
      let down = List.filter (fun _ -> Rng.bernoulli pick down_rate) (List.init n Fun.id) in
      let cluster = cluster_with_down ~seed ~n down in
      let keep =
        match mask with
        | Some mask -> fun s -> (mask lsr (s mod 60)) land 1 = 1 || s mod 3 = 0
        | None -> fun _ -> true
      in
      (* A few full walks in a row, each from where the last left the
         generator. *)
      List.for_all
        (fun _ ->
          let rng = Rng.copy (Cluster.rng cluster) in
          let want = reference_random_up rng cluster ~keep in
          let got =
            Probe_order.to_list
              (match mask with
              | Some _ -> Probe_order.random_up ~keep cluster
              | None -> Probe_order.random_up cluster)
          in
          got = want && Rng.bits64 (Rng.copy (Cluster.rng cluster)) = Rng.bits64 rng)
        (List.init (1 + (abs walks mod 3)) Fun.id))

let test_random_up_prefix_uniform () =
  (* n = 8 with servers 2 and 5 down: each of the first three positions
     must be uniform over the 6 up servers.  Chi-square with 5 degrees of
     freedom; 20.5 is the 0.1% critical value.  The seed is fixed, so the
     verdict is deterministic. *)
  let n = 8 and down = [ 2; 5 ] and trials = 6000 in
  let cluster = cluster_with_down ~seed:2024 ~n down in
  let counts = Array.make_matrix 3 n 0 in
  for _ = 1 to trials do
    let order = Probe_order.random_up cluster in
    for pos = 0 to 2 do
      match Probe_order.next order with
      | Some s -> counts.(pos).(s) <- counts.(pos).(s) + 1
      | None -> Alcotest.fail "cursor drained early"
    done
  done;
  let expected = float_of_int trials /. 6. in
  for pos = 0 to 2 do
    List.iter
      (fun s -> Helpers.check_int (Printf.sprintf "down server %d at %d" s pos) 0 counts.(pos).(s))
      down;
    let chi2 =
      Array.fold_left
        (fun acc c ->
          if c = 0 then acc
          else
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
        0. counts.(pos)
    in
    if chi2 > 20.5 then Alcotest.failf "position %d: chi-square %.2f > 20.5" pos chi2
  done

(* The stride order as it was built before the cursor: walk the cycle
   marking a visited array, then append the unvisited ids ascending. *)
let reference_stride ~n ~start ~step =
  let step = ((step mod n) + n) mod n in
  let visited = Array.make n false in
  let order = ref [] in
  let pos = ref (((start mod n) + n) mod n) in
  while not visited.(!pos) do
    visited.(!pos) <- true;
    order := !pos :: !order;
    pos := (!pos + step) mod n
  done;
  List.rev !order @ List.filter (fun i -> not visited.(i)) (List.init n Fun.id)

let test_stride_matches_reference () =
  for n = 1 to 12 do
    for start = -30 to 30 do
      for step = -30 to 30 do
        let got = Probe_order.to_list (Probe_order.stride ~n ~start ~step) in
        if got <> reference_stride ~n ~start ~step then
          Alcotest.failf "n=%d start=%d step=%d" n start step
      done
    done
  done

let test_of_list_drops_duplicates () =
  Alcotest.(check (list int)) "first occurrences" [ 3; 1; 4; 5; 9; 2; 6 ]
    (Probe_order.to_list (Probe_order.of_list [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3 ]))

let prop_of_list_first_occurrences =
  (* Ids straddle the shared range [0, 62], so both paths run. *)
  Helpers.qcheck ~count:300 "of_list keeps first occurrences, in order"
    QCheck2.Gen.(list_size (int_range 0 12) (int_range (-2) 66))
    (fun ids ->
      let rec firsts seen = function
        | [] -> []
        | s :: rest -> if List.mem s seen then firsts seen rest else s :: firsts (s :: seen) rest
      in
      Probe_order.to_list (Probe_order.of_list ids) = firsts [] ids)

let test_of_list_shares_distinct () =
  (* Distinct ids in [0, 62]: the list is checked without allocating, so
     the cursor is all that [of_list] allocates. *)
  let ids = [ 62; 3; 0; 17; 9; 41; 5; 8; 2; 30 ] in
  Alcotest.(check (list int)) "same order" ids (Probe_order.to_list (Probe_order.of_list ids));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Probe_order.of_list ids))
  done;
  let words = (Gc.minor_words () -. before) /. 1000. in
  if words > 2. then Alcotest.failf "of_list allocated %.1f words, above the cursor's 2" words

let prop_single_same_server_as_before =
  (* The reference is the old formulation: index the ascending array of
     reachable up servers with one draw from the same generator state.
     Each server stores only its own id, so the answer names the server
     contacted. *)
  Helpers.qcheck ~count:300 "single picks the same server as the array formulation"
    QCheck2.Gen.(triple (int_range 1 20) (list_size (int_range 0 20) (int_bound 19)) (pair bool int))
    (fun (n, down, (restrict, mask)) ->
      let cluster = manual_cluster ~n (List.init n (fun s -> [ s ])) in
      List.iter (fun s -> if s < n then Cluster.fail cluster s) down;
      let reachable = if restrict then Some (fun s -> (mask lsr s) land 1 = 1) else None in
      let usable =
        List.filter
          (fun s -> Cluster.is_up cluster s && match reachable with Some ok -> ok s | None -> true)
          (List.init n Fun.id)
        |> Array.of_list
      in
      let want =
        if Array.length usable = 0 then []
        else [ usable.(Rng.int (Rng.copy (Cluster.rng cluster)) (Array.length usable)) ]
      in
      let r = Probe.lookup ?reachable cluster Strategy_intf.One_server ~t:1 in
      List.map Entry.id r.Lookup_result.entries = want)

(* {2 The lookup driver against the per-strategy clients}

   [Reference] keeps the synchronous client as each strategy wrote it
   before strategies declared a discipline: [single] for FullReplication
   and Fixed-x, [random_order] for RandomServer-x and the owner-function
   strategies, and for Round-Robin-y a start drawn from the cluster's
   generator followed by [stride].  {!Service.partial_lookup} must make
   the same contacts and the same draws. *)
module Reference = struct
  let contact cluster ~t answers server =
    match Net.send (Cluster.net cluster) ~src:Net.Client ~dst:server (Msg.lookup t) with
    | Some (Msg.Entries entries) ->
      Answer_set.add answers entries;
      true
    | Some (Msg.Ack | Msg.Candidate _ | Msg.Digest _ | Msg.Busy) | None -> false

  let result_of cluster answers ~contacted ~target =
    { Lookup_result.entries = Answer_set.pick answers ~rng:(Cluster.rng cluster) ~target;
      servers_contacted = contacted;
      target }

  let fresh_answers cluster =
    let answers = Cluster.answers cluster in
    Answer_set.reset answers;
    answers

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
      let answers = fresh_answers cluster in
      let answered = contact cluster ~t answers server in
      result_of cluster answers ~contacted:(if answered then 1 else 0) ~target:t

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
      else Probe_order.random_up ?keep:reachable cluster
    in
    probe_order cluster ~t order

  let lookup ?reachable cluster config ~t =
    match (Service.kind config, Service.params config) with
    | ("FullReplication" | "Fixed"), _ -> single ?reachable cluster ~t
    | ("RandomServer" | "RandomServerReplacing" | "Hash" | "Chord" | "DxHash" | "MultiProbe"), _
      ->
      random_order ?reachable cluster ~t
    | ("RoundRobin" | "RoundRobinHA"), y :: _ ->
      let start = Rng.int (Cluster.rng cluster) (Cluster.n cluster) in
      stride ?reachable cluster ~start ~step:y ~t
    | kind, _ -> Alcotest.failf "no reference client for %s" kind
end

let prop_lookup_matches_reference =
  (* Two identically seeded and placed services per registered strategy,
     with the same failures: one looked up through the service, the other
     by the reference.  Failures are none, a random set, all but one
     server, or every server. *)
  Helpers.qcheck ~count:150 "lookup matches the per-strategy clients"
    QCheck2.Gen.(
      quad (int_range 2 12) (pair (int_bound 3) int) (opt int)
        (pair (oneof [ int_range 1 40; return max_int ]) int))
    (fun (n, (failures, mask), reach, (t, seed)) ->
      let h = 30 in
      let down s =
        match failures with
        | 0 -> false
        | 1 -> (mask lsr s) land 1 = 1
        | 2 -> s <> abs mask mod n
        | _ -> true
      in
      let reachable = Option.map (fun r s -> (r lsr s) land 1 = 1) reach in
      List.for_all
        (fun config ->
          let make () =
            let service, _ = Helpers.placed_service ~seed ~n ~h config in
            let cluster = Service.cluster service in
            List.iter (fun s -> if down s then Cluster.fail cluster s) (List.init n Fun.id);
            (service, cluster)
          in
          let service, cluster = make () and _, reference = make () in
          let got = Service.partial_lookup ?reachable service t in
          let want = Reference.lookup ?reachable reference config ~t in
          let next c = Rng.int (Cluster.rng c) 1_000_000_000 in
          List.map Entry.id got.Lookup_result.entries
          = List.map Entry.id want.Lookup_result.entries
          && got.Lookup_result.servers_contacted = want.Lookup_result.servers_contacted
          && next cluster = next reference
          || QCheck2.Test.fail_reportf "%s differs from its reference client"
               (Service.name service))
        (Service.all_configs ~ablations:true ~budget:(2 * h) ~n ~h ()))

let () =
  Helpers.run "probe"
    [ ( "probe",
        [ Alcotest.test_case "single contacts one" `Quick test_single_contacts_one;
          Alcotest.test_case "single no retry" `Quick test_single_no_retry;
          Alcotest.test_case "single all down" `Quick test_single_all_down;
          Alcotest.test_case "random_order merges" `Quick test_random_order_merges;
          Alcotest.test_case "random_order stops early" `Quick test_random_order_stops_early;
          Alcotest.test_case "random_order exhausts" `Quick
            test_random_order_exhausts_unsatisfied;
          Alcotest.test_case "truncation" `Quick test_truncation_to_target;
          Alcotest.test_case "reachable filter" `Quick test_reachable_filter;
          Alcotest.test_case "stride disjoint" `Quick test_stride_visits_disjoint_servers;
          Alcotest.test_case "stride extends" `Quick test_stride_extends_past_cycle;
          Alcotest.test_case "stride failure fallback" `Quick
            test_stride_falls_back_on_failure;
          Alcotest.test_case "stride negative step" `Quick test_stride_negative_step;
          Alcotest.test_case "stride step multiple of n" `Quick
            test_stride_step_multiple_of_n;
          prop_stride_total_for_any_step;
          Alcotest.test_case "message accounting" `Quick test_each_contact_counts_a_message;
          prop_results_come_from_answers;
          Alcotest.test_case "kept set uniform over union" `Quick test_kept_set_uniform;
          Alcotest.test_case "answer set after pref" `Quick test_answer_set_after_pref;
          prop_answer_set_matches_model;
          prop_one_table_for_every_lookup;
          prop_never_exceeds_target;
          prop_lookup_matches_reference ] );
      ( "order",
        [ prop_random_up_is_permutation;
          prop_random_up_matches_fisher_yates;
          Alcotest.test_case "random prefix uniform" `Quick test_random_up_prefix_uniform;
          Alcotest.test_case "stride matches reference" `Quick test_stride_matches_reference;
          Alcotest.test_case "of_list drops duplicates" `Quick test_of_list_drops_duplicates;
          prop_of_list_first_occurrences;
          Alcotest.test_case "of_list shares a distinct list" `Quick
            test_of_list_shares_distinct;
          prop_single_same_server_as_before ] ) ]
