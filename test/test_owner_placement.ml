(* The Owner_placement contract, run on all four strategies built on it
   (Hash-y, Chord-y, DxHash-y, MultiProbe-YxK), plus each strategy's own
   geometry.  Case names are stable test ids, so a group keeps the name
   it has always used for a contract check; checks new to a group take
   the name most groups use. *)

open Plookup
open Plookup_store
module Net = Plookup_net.Net

type subject = {
  spelling : string;  (** the {!Service} spelling at y = 2 *)
  name : string;  (** its canonical config name *)
  who : string;  (** the constructor's name in its error messages *)
  create : Cluster.t -> y:int -> Owner_placement.t;
  exact : bool;  (** always [min y n] owners; Hash-y's collisions can leave fewer *)
}

let hash =
  { spelling = "hash-2"; name = "Hash-2"; who = "Hash_scheme"; create = Hash_scheme.create;
    exact = false }

let chord =
  { spelling = "chord-2"; name = "Chord-2"; who = "Chord"; create = Ring.chord; exact = true }

let dxhash =
  { spelling = "dxhash-2"; name = "DxHash-2"; who = "Dxhash"; create = Dxhash.create;
    exact = true }

let multi_probe =
  { spelling = "multiprobe-2x2"; name = "MultiProbe-2x2"; who = "Multi_probe";
    create = (fun cluster ~y -> Ring.multi_probe cluster ~y ~k:2); exact = true }

let make ?(seed = 11) ?(n = 6) s ~y =
  let cluster = Cluster.create ~seed ~n () in
  (cluster, s.create cluster ~y)

let placed ?seed ?n s ~y ~h =
  let cluster, p = make ?seed ?n s ~y in
  let batch = Helpers.entries h in
  Owner_placement.place p batch;
  (cluster, p, batch)

(* A client lookup by the discipline the owner-function strategies
   declare (test_strategy_registry checks the declaration). *)
let lookup cluster t = Probe.lookup cluster Strategy_intf.Random ~t

let check_invariants p ~placed =
  match Owner_placement.check_invariants p ~placed with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Distinct servers in [0, n): exactly [min y n] of them, or for Hash-y
   between one and [min y n]. *)
let check_owners s ~n ~y owners =
  let count = List.length owners in
  Helpers.check_int "distinct" count (List.length (List.sort_uniq compare owners));
  List.iter (fun o -> Helpers.check_bool "in range" true (o >= 0 && o < n)) owners;
  if s.exact then Helpers.check_int "min y n owners" (min y n) count
  else Helpers.check_bool "1 .. min y n owners" true (count >= 1 && count <= min y n)

(* {1 The contract} *)

let servers_distinct s () =
  let _, p = make s ~y:3 in
  List.iter
    (fun id -> check_owners s ~n:6 ~y:3 (Owner_placement.servers_of p (Entry.v id)))
    [ 0; 1; 17; 400; 12345 ]

let deterministic s () =
  let owners () =
    let _, p = make ~seed:42 s ~y:2 in
    List.map (fun id -> Owner_placement.servers_of p (Entry.v id)) (List.init 30 Fun.id)
  in
  Alcotest.(check (list (list int))) "same seed, same owners" (owners ()) (owners ())

let clamped s () =
  let _, p = make ~n:4 s ~y:9 in
  List.iter
    (fun id -> check_owners s ~n:4 ~y:9 (Owner_placement.servers_of p (Entry.v id)))
    (List.init 20 Fun.id)

let placement_matches s () =
  let _, p, batch = placed s ~y:2 ~h:40 in
  check_invariants p ~placed:batch

let add_delete_maintain s () =
  let _, p, batch = placed s ~y:2 ~h:20 in
  let extra = Entry.v 999 in
  Owner_placement.add p extra;
  check_invariants p ~placed:(extra :: batch);
  Owner_placement.delete p extra;
  check_invariants p ~placed:batch

let add_touches_owners s () =
  let cluster, p, _ = placed ~n:10 s ~y:3 ~h:20 in
  let e = Entry.v 500 in
  let owners = Owner_placement.servers_of p e in
  Net.reset_counters (Cluster.net cluster);
  Owner_placement.add p e;
  Helpers.check_int "1 + |owners| messages" (1 + List.length owners)
    (Net.messages_received (Cluster.net cluster));
  for server = 0 to 9 do
    Helpers.check_bool
      (Printf.sprintf "server %d correct" server)
      (List.mem server owners)
      (Server_store.mem (Cluster.store cluster server) e)
  done

let delete_removes_copies s () =
  let cluster, p, batch = placed ~n:10 s ~y:3 ~h:20 in
  let victim = List.hd batch in
  Net.reset_counters (Cluster.net cluster);
  Owner_placement.delete p victim;
  Helpers.check_int "1 + |owners| messages"
    (1 + List.length (Owner_placement.servers_of p victim))
    (Net.messages_received (Cluster.net cluster));
  for server = 0 to 9 do
    Helpers.check_bool "gone" false (Server_store.mem (Cluster.store cluster server) victim)
  done;
  check_invariants p ~placed:(List.tl batch)

let no_broadcasts s () =
  let cluster, p, batch = placed ~n:10 s ~y:2 ~h:20 in
  Owner_placement.add p (Entry.v 300);
  Owner_placement.delete p (List.hd batch);
  Helpers.check_int "zero broadcasts" 0 (Net.broadcasts (Cluster.net cluster))

let update_stream ~name s =
  Helpers.qcheck ~count:100 name
    QCheck2.Gen.(list_size (int_range 0 60) (pair bool (int_range 0 30)))
    (fun ops ->
      let _, p, batch = placed ~seed:31 s ~y:2 ~h:10 in
      let live = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace live (Entry.id e) e) batch;
      List.iter
        (fun (is_add, i) ->
          let e = Entry.v (100 + i) in
          if is_add then begin
            Hashtbl.replace live (Entry.id e) e;
            Owner_placement.add p e
          end
          else begin
            Hashtbl.remove live (Entry.id e);
            Owner_placement.delete p e
          end)
        ops;
      let placed = Hashtbl.fold (fun _ e acc -> e :: acc) live [] in
      Owner_placement.check_invariants p ~placed = Ok ())

(* Budget h: the first round stores each entry exactly once, so coverage
   is complete and no entry has a second copy.  This is the Round&Hash
   column of fig6 for the hashed strategies. *)
let budget_h s () =
  let cluster, p = make ~n:10 s ~y:3 in
  Owner_placement.place ~budget:100 p (Helpers.entries 100);
  Helpers.check_int "one copy each" 100 (Plookup_metrics.Storage.measured cluster);
  Helpers.check_int "coverage complete" 100 (Plookup_metrics.Coverage.measured cluster)

let budget_below_h s () =
  let cluster, p = make ~n:10 s ~y:2 in
  Owner_placement.place ~budget:40 p (Helpers.entries 100);
  Helpers.check_int "coverage = budget" 40 (Plookup_metrics.Coverage.measured cluster)

let lookup_satisfied s () =
  let cluster, _, _ = placed s ~y:2 ~h:30 in
  Helpers.check_bool "satisfied" true (Lookup_result.satisfied (lookup cluster 10))

let n1000_smoke s () =
  let cluster, p, batch = placed ~seed:9 ~n:1000 s ~y:2 ~h:2000 in
  check_invariants p ~placed:batch;
  Helpers.check_bool "satisfied" true (Lookup_result.satisfied (lookup cluster 20))

(* The extension point at test level: each strategy is reachable through
   Service purely via its registration. *)
let reachable s () =
  match Service.config_of_string s.spelling with
  | Error e -> Alcotest.fail e
  | Ok config ->
    Helpers.check_string "canonical name" s.name (Service.config_name config);
    let service, _ = Helpers.placed_service ~n:5 ~h:20 config in
    Helpers.check_bool "satisfied" true
      (Lookup_result.satisfied (Service.partial_lookup service 8));
    let expected = if s.exact then 40. else 20. *. 5. *. (1. -. (0.8 ** 2.)) in
    Helpers.close "analytic storage" expected (Service.analytic_storage config ~n:5 ~h:20)

let create_validation s () =
  let cluster = Cluster.create ~seed:1 ~n:3 () in
  Alcotest.check_raises "y < 1" (Invalid_argument (s.who ^ ".create: y must be at least 1"))
    (fun () -> ignore (s.create cluster ~y:0))

(* {1 Hash-y's geometry} *)

let hash_dedups () =
  (* y = 5 over 2 servers necessarily collides. *)
  let _, p = make ~seed:6 ~n:2 hash ~y:5 in
  check_owners hash ~n:2 ~y:5 (Owner_placement.servers_of p (Entry.v 7))

let hash_seed_changes_placement () =
  let owners seed =
    let _, p = make ~seed ~n:10 hash ~y:2 in
    List.map (Owner_placement.servers_of p) (Helpers.entries 50)
  in
  Helpers.check_bool "different seeds, different hashes" true (owners 1 <> owners 2)

let hash_uneven_occupancy () =
  (* Hash-y gives no per-server guarantee — with 100 entries on 10
     servers the min and max occupancy differ. *)
  let cluster, _, _ = placed ~seed:6 ~n:10 hash ~y:2 ~h:100 in
  let sizes = List.init 10 (fun i -> Server_store.cardinal (Cluster.store cluster i)) in
  Helpers.check_bool "uneven" true
    (List.fold_left max 0 sizes > List.fold_left min max_int sizes)

let hash_expected_storage () =
  (* Mean total storage over seeds ~ h*n*(1-(1-1/n)^y) = 190 for
     h=100, n=10, y=2. *)
  let acc = Plookup_util.Stats.Accum.create () in
  for seed = 1 to 60 do
    let cluster, _, _ = placed ~seed ~n:10 hash ~y:2 ~h:100 in
    Plookup_util.Stats.Accum.add acc (float_of_int (Cluster.total_stored cluster))
  done;
  Helpers.roughly ~rel:0.02 "expected storage" 190. (Plookup_util.Stats.Accum.mean acc)

let hash_extra_server () =
  (* With t close to the average occupancy, some lookups hit a small
     server and need a second: mean cost > 1 (the Fig. 4 effect). *)
  let cluster, _, _ = placed ~seed:6 ~n:10 hash ~y:2 ~h:100 in
  let total = ref 0 in
  let lookups = 500 in
  for _ = 1 to lookups do
    let r = lookup cluster 15 in
    total := !total + r.Lookup_result.servers_contacted;
    Helpers.check_bool "satisfied" true (Lookup_result.satisfied r)
  done;
  Helpers.check_bool "mean cost > 1" true (!total > lookups)

(* {1 The rings' geometry} *)

let neighbour_locality s () =
  (* A ring's selling point vs Hash-y: an entry's copies sit on ring
     neighbours, so its owner lists under y and y+1 share a prefix. *)
  let _, p2 = make ~seed:7 s ~y:2 in
  let _, p3 = make ~seed:7 s ~y:3 in
  List.iter
    (fun id ->
      let e = Entry.v id in
      Alcotest.(check (list int)) "prefix" (Owner_placement.servers_of p2 e)
        (Plookup_util.List_util.take 2 (Owner_placement.servers_of p3 e)))
    (List.init 20 Fun.id)

let peak_over_mean ~n ~ids servers_of =
  let counts = Array.make n 0 in
  for id = 0 to ids - 1 do
    List.iter (fun s -> counts.(s) <- counts.(s) + 1) (servers_of (Entry.v id))
  done;
  float_of_int (Array.fold_left max 0 counts) /. (float_of_int ids /. float_of_int n)

(* The whole point of multi-probe hashing: more probes per key shave the
   peak/mean load ratio of the single-point ring, without any virtual
   nodes. *)
let more_probes_less_skew () =
  let skew k =
    let cluster = Cluster.create ~seed:3 ~n:100 () in
    peak_over_mean ~n:100 ~ids:10_000
      (Owner_placement.servers_of (Ring.multi_probe cluster ~y:1 ~k))
  in
  let skew1 = skew 1 and skew8 = skew 8 in
  Helpers.check_bool (Printf.sprintf "skew k=8 (%.2f) < skew k=1 (%.2f)" skew8 skew1) true
    (skew8 < skew1);
  Helpers.check_bool (Printf.sprintf "skew k=8 (%.2f) < 3" skew8) true (skew8 < 3.)

let multi_probe_validation () =
  create_validation multi_probe ();
  let cluster = Cluster.create ~seed:1 ~n:3 () in
  Alcotest.check_raises "k < 1" (Invalid_argument "Multi_probe.create: k must be at least 1")
    (fun () -> ignore (Ring.multi_probe cluster ~y:1 ~k:0))

(* {1 DxHash-y's geometry} *)

let dxhash_slot_count () =
  Helpers.check_int "n=6 -> 8 slots" 8 (Dxhash.slot_count 6);
  Helpers.check_int "n=1000 -> 1024 slots" 1024 (Dxhash.slot_count 1000);
  Helpers.check_int "n=64 -> 64 slots" 64 (Dxhash.slot_count 64)

(* The consistent-hashing churn bound: shrinking the active prefix by
   one slot only remaps entries whose probe walk actually picked the
   flipped slot — an expected y/n fraction — and every other entry
   keeps its owner set byte-identical. *)
let dxhash_remap_fraction () =
  let n = 64 and y = 2 in
  let cluster, p = make ~seed:5 ~n dxhash ~y in
  let ids = List.init 2000 Fun.id in
  let changed = ref 0 in
  List.iter
    (fun id ->
      let e = Entry.v id in
      let before = Dxhash.owners_for cluster ~y ~active:n e in
      let after = Dxhash.owners_for cluster ~y ~active:(n - 1) e in
      Alcotest.(check (list int)) "owners_for full = servers_of"
        (Owner_placement.servers_of p e) before;
      if List.mem (n - 1) before then begin
        incr changed;
        (* The surviving owners are untouched; only the flipped slot is
           replaced. *)
        List.iter
          (fun s -> Helpers.check_bool "survivor kept" true (List.mem s after))
          (List.filter (fun s -> s <> n - 1) before);
        Helpers.check_bool "flipped slot gone" false (List.mem (n - 1) after)
      end
      else Alcotest.(check (list int)) "untouched entry stable" before after)
    ids;
  let fraction = float_of_int !changed /. float_of_int (List.length ids) in
  (* Expected y/n ~ 3.1%; fail only on a gross violation of the bound. *)
  Helpers.check_bool "some entries remap" true (!changed > 0);
  Helpers.check_bool
    (Printf.sprintf "remap fraction %.3f <= 4y/n" fraction)
    true
    (fraction <= 4. *. float_of_int y /. float_of_int n)

let dxhash_load_skew () =
  (* Independent per-entry probe walks spread load like uniform hashing:
     peak/mean stays well under a single-point ring's skew. *)
  let _, p = make ~seed:3 ~n:100 dxhash ~y:1 in
  let skew = peak_over_mean ~n:100 ~ids:10_000 (Owner_placement.servers_of p) in
  Helpers.check_bool (Printf.sprintf "peak/mean %.2f < 2" skew) true (skew < 2.)

let q name f = Alcotest.test_case name `Quick f

let () =
  Helpers.run "owner_placement"
    [ ( "hash_scheme",
        [ q "servers_of deterministic" (deterministic hash);
          q "servers_of distinct" (servers_distinct hash);
          q "servers_of dedups" hash_dedups;
          q "y clamped to n" (clamped hash);
          q "placement matches hashes" (placement_matches hash);
          q "seed changes placement" hash_seed_changes_placement;
          q "uneven occupancy" hash_uneven_occupancy;
          Alcotest.test_case "expected storage" `Slow hash_expected_storage;
          q "add/delete maintain" (add_delete_maintain hash);
          q "add touches hashed only" (add_touches_owners hash);
          q "delete removes copies" (delete_removes_copies hash);
          q "no broadcasts" (no_broadcasts hash);
          q "budget round-major" (budget_h hash);
          q "budget below h" (budget_below_h hash);
          q "partial lookup satisfied" (lookup_satisfied hash);
          q "extra server effect" hash_extra_server;
          q "n=1000 smoke" (n1000_smoke hash);
          q "rejects bad y" (create_validation hash);
          q "reachable through service" (reachable hash);
          update_stream ~name:"hash invariant survives random update streams" hash ] );
      ( "chord",
        [ q "servers_of distinct" (servers_distinct chord);
          q "y clamped to n" (clamped chord);
          q "placement matches ring" (placement_matches chord);
          q "add/delete maintain ring" (add_delete_maintain chord);
          q "add touches owners only" (add_touches_owners chord);
          q "delete removes copies" (delete_removes_copies chord);
          q "no broadcasts" (no_broadcasts chord);
          q "deterministic" (deterministic chord);
          q "partial lookup satisfied" (lookup_satisfied chord);
          q "n=1000 smoke" (n1000_smoke chord);
          q "budget truncates round-major" (budget_h chord);
          q "budget below h" (budget_below_h chord);
          q "neighbour locality" (neighbour_locality chord);
          q "create validation" (create_validation chord);
          q "reachable through service" (reachable chord);
          update_stream ~name:"invariant survives random update streams" chord ] );
      ( "dxhash",
        [ q "servers_of distinct" (servers_distinct dxhash);
          q "y clamped to n" (clamped dxhash);
          q "slots power of two" dxhash_slot_count;
          q "placement matches probe sequence" (placement_matches dxhash);
          q "add/delete maintain" (add_delete_maintain dxhash);
          q "add touches owners only" (add_touches_owners dxhash);
          q "delete removes copies" (delete_removes_copies dxhash);
          q "no broadcasts" (no_broadcasts dxhash);
          q "deterministic" (deterministic dxhash);
          q "partial lookup satisfied" (lookup_satisfied dxhash);
          q "budget truncates round-major" (budget_h dxhash);
          q "budget below h" (budget_below_h dxhash);
          q "remap fraction bounded" dxhash_remap_fraction;
          q "load skew bounded" dxhash_load_skew;
          q "n=1000 smoke" (n1000_smoke dxhash);
          q "create validation" (create_validation dxhash);
          q "reachable through service" (reachable dxhash);
          update_stream ~name:"invariant survives random update streams" dxhash ] );
      ( "multi_probe",
        [ q "servers_of distinct" (servers_distinct multi_probe);
          q "y clamped to n" (clamped multi_probe);
          q "placement matches ring" (placement_matches multi_probe);
          q "add/delete maintain ring" (add_delete_maintain multi_probe);
          q "add touches owners only" (add_touches_owners multi_probe);
          q "delete removes copies" (delete_removes_copies multi_probe);
          q "no broadcasts" (no_broadcasts multi_probe);
          q "deterministic" (deterministic multi_probe);
          q "partial lookup satisfied" (lookup_satisfied multi_probe);
          q "budget truncates round-major" (budget_h multi_probe);
          q "budget below h" (budget_below_h multi_probe);
          q "neighbour locality" (neighbour_locality multi_probe);
          q "more probes less skew" more_probes_less_skew;
          q "n=1000 smoke" (n1000_smoke multi_probe);
          q "create validation" multi_probe_validation;
          q "reachable through service" (reachable multi_probe);
          update_stream ~name:"invariant survives random update streams" multi_probe ] ) ]
