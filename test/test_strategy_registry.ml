open Plookup
open Plookup_store
module Net = Plookup_net.Net

(* The registry is the single source of truth for which strategies
   exist; these tests pin its parsing/enumeration behaviour and assert
   the totality contract the typed message planes give every registered
   strategy. *)

let metas () =
  List.map (fun (module S : Strategy_intf.S) -> S.meta) (Strategy_registry.all ())

let test_all_sorted_by_rank () =
  let ranks = List.map (fun m -> m.Strategy_intf.rank) (metas ()) in
  Alcotest.(check (list int)) "rank order" (List.sort compare ranks) ranks;
  Alcotest.(check bool) "all six core strategies plus both ablations" true
    (List.length ranks >= 8)

let test_find_is_case_insensitive () =
  List.iter
    (fun name ->
      match Strategy_registry.find name with
      | Some (module S) ->
        Alcotest.(check string) name "RoundRobin" S.meta.Strategy_intf.name
      | None -> Alcotest.failf "find %S failed" name)
    [ "RoundRobin"; "roundrobin"; "ROUND"; " round_robin " ]

let test_parse_valid () =
  List.iter
    (fun (input, expected) ->
      match Strategy_registry.parse input with
      | Ok (name, params) ->
        Alcotest.(check string) input (fst expected) name;
        Alcotest.(check (list int)) input (snd expected) params
      | Error e -> Alcotest.failf "parse %S: %s" input e)
    [ ("full", ("FullReplication", []));
      ("fixed-20", ("Fixed", [ 20 ]));
      ("chord-2", ("Chord", [ 2 ]));
      ("ring-3", ("Chord", [ 3 ]));
      ("roundrobinha-2x3", ("RoundRobinHA", [ 2; 3 ]))
    ]

let test_parse_invalid () =
  List.iter
    (fun input ->
      match Strategy_registry.parse input with
      | Ok (name, _) -> Alcotest.failf "parse %S accepted as %s" input name
      | Error _ -> ())
    [ ""; "fixed"; "fixed-0"; "fixed--3"; "fixed-2x3"; "roundrobinha-2"; "full-1";
      "nonsense-4"; "hash-" ]

let test_suggestions () =
  List.iter
    (fun (input, expected_hint) ->
      match Strategy_registry.parse input with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" input
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions %S (got: %s)" input expected_hint e)
          true
          (Helpers.contains e expected_hint))
    [ ("chrod-2", "chord"); ("fxied-20", "fixed"); ("hsah-2", "hash") ]

let test_spelling_in_unknown_error () =
  match Strategy_registry.parse "frobnicate-3" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "lists %S" needle)
          true (Helpers.contains e needle))
      [ "full"; "fixed-X"; "chord-Y" ]

(* Default parameters giving every strategy a working tiny instance. *)
let params_for (m : Strategy_intf.meta) =
  match m.Strategy_intf.arity with 0 -> [] | 1 -> [ 3 ] | _ -> [ 2; 2 ]

(* Every message, one per constructor across the three planes, in
   declaration order. *)
let every_message =
  let e = Entry.v 1 in
  let bits = Plookup_util.Bitset.create 8 in
  [ Msg.place [ e; Entry.v 2 ];
    Msg.add e;
    Msg.delete e;
    Msg.lookup 2;
    Msg.store e;
    Msg.store_batch [ e ];
    Msg.remove e;
    Msg.add_sampled e;
    Msg.remove_counted e;
    Msg.fetch_candidate [ 1; 2 ];
    Msg.sync_add e;
    Msg.sync_delete e;
    Msg.sync_state;
    Msg.digest_request bits;
    Msg.sync_fix [ e ] [ 2 ];
    Msg.digest_pull;
    Msg.repair_store e ]

(* The exhaustiveness witness: each [Msg] constructor's plane and its
   position in [every_message].  There is no catch-all arm, so a new
   constructor fails to compile here until it gets one; give it the next
   position and put its example there in [every_message]. *)
let witness : Msg.t -> string * int =
  Msg.(
    function
    | Data (Place _) -> ("data", 0)
    | Data (Add _) -> ("data", 1)
    | Data (Delete _) -> ("data", 2)
    | Data (Lookup _) -> ("data", 3)
    | Strategy (Store _) -> ("strategy", 4)
    | Strategy (Store_batch _) -> ("strategy", 5)
    | Strategy (Remove _) -> ("strategy", 6)
    | Strategy (Add_sampled _) -> ("strategy", 7)
    | Strategy (Remove_counted _) -> ("strategy", 8)
    | Strategy (Fetch_candidate _) -> ("strategy", 9)
    | Strategy (Sync_add _) -> ("strategy", 10)
    | Strategy (Sync_delete _) -> ("strategy", 11)
    | Strategy Sync_state -> ("strategy", 12)
    | Repair (Digest_request _) -> ("repair", 13)
    | Repair (Sync_fix _) -> ("repair", 14)
    | Repair Digest_pull -> ("repair", 15)
    | Repair (Repair_store _) -> ("repair", 16))

(* For every message: [plane_index] names its constructor's plane,
   [trace_coder] gives each constructor its own code, and a traced send
   carries the plane name [plane_names] gives it. *)
let test_every_message_planes_and_codes () =
  Alcotest.(check (list int))
    "one message per constructor, in declaration order"
    (List.init (List.length every_message) Fun.id)
    (List.map (fun m -> snd (witness m)) every_message);
  let plane_of m = Msg.plane_names.(Msg.plane_index m) in
  List.iter (fun m -> Helpers.check_string "plane_index" (fst (witness m)) (plane_of m)) every_message;
  let tr = Plookup_obs.Trace.create () in
  Plookup_obs.Trace.set_enabled tr true;
  let coder = Msg.trace_coder tr in
  let codes = List.map coder every_message in
  Helpers.check_int "distinct trace codes" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun pm -> ignore (Plookup_obs.Trace.emit_send tr ~time:0. ~src:(-1) ~dst:0 ~pm))
    codes;
  List.iter2
    (fun m (span : Plookup_obs.Span.t) ->
      match span.kind with
      | Plookup_obs.Span.Send { plane; _ } -> Helpers.check_string "span plane" (plane_of m) plane
      | _ -> Alcotest.fail "expected a Send span")
    every_message
    (Plookup_obs.Trace.spans tr)

(* The totality contract: with the handlers exhaustive over their typed
   planes (no catch-all invalid_arg left), any registered strategy must
   answer any message — its own planes and other strategies' internal
   traffic alike — without raising. *)
let test_every_strategy_handles_every_message () =
  List.iter
    (fun (module S : Strategy_intf.S) ->
      let m = S.meta in
      let config = Service.v ~kind:m.Strategy_intf.name ~params:(params_for m) in
      let service = Service.create ~seed:3 ~n:4 config in
      Service.place service (Helpers.entries 10);
      let net = Cluster.net (Service.cluster service) in
      List.iter
        (fun msg ->
          for dst = 0 to 3 do
            try ignore (Net.send net ~src:Net.Client ~dst msg)
            with exn ->
              let plane, position = witness msg in
              Alcotest.failf "%s: server %d raised %s on the %s message at position %d"
                m.Strategy_intf.name dst (Printexc.to_string exn) plane position
          done)
        every_message)
    (Strategy_registry.all ())

(* The service must stay functional after the bombardment (whose
   store/remove messages legitimately rewrite stores): a fresh placement
   still answers lookups through the public API. *)
let test_every_strategy_lookup_after_foreign_traffic () =
  List.iter
    (fun (module S : Strategy_intf.S) ->
      let m = S.meta in
      let config = Service.v ~kind:m.Strategy_intf.name ~params:(params_for m) in
      let service = Service.create ~seed:5 ~n:4 config in
      Service.place service (Helpers.entries 12);
      let net = Cluster.net (Service.cluster service) in
      List.iter (fun msg -> ignore (Net.send net ~src:Net.Client ~dst:0 msg)) every_message;
      Service.place service (Helpers.entries 12);
      let r = Service.partial_lookup service 2 in
      Alcotest.(check bool)
        (m.Strategy_intf.name ^ " still answers")
        true
        (Lookup_result.satisfied r))
    (Strategy_registry.all ())

(* The strategy-plane messages each strategy handles itself, by their
   position in [every_message]; it takes every other strategy-plane
   message with [Strategy_common.default_strategy].  A strategy that
   comes to own a message must be added here. *)
let owned_positions = function
  | "RandomServer" | "RandomServerReplacing" -> [ 5; 7; 8; 9 ]
  | "RoundRobin" | "RoundRobinHA" -> [ 10; 11; 12 ]
  | _ -> []

(* The handler contract, on a cluster without repair: a server answers
   every strategy-plane message its strategy does not own, and every
   repair-plane message, with [Ack].  A message of the first kind
   changes the receiving store as [default_strategy] says (a point store
   adds, a point remove drops, a batch replaces it, the rest leave it
   alone) and no other store; one of the second changes no store.  Each
   message goes to a freshly placed service, with a point store of a new
   entry and a point remove of one the server holds beside
   [every_message]'s. *)
let test_every_strategy_default_handler_contract () =
  let dst = 1 in
  List.iter
    (fun (module S : Strategy_intf.S) ->
      let m = S.meta in
      let name = m.Strategy_intf.name in
      let fresh () =
        let service =
          Service.create ~seed:6 ~n:4 (Service.v ~kind:name ~params:(params_for m))
        in
        Service.place service (Helpers.entries 10);
        Service.cluster service
      in
      let held = Server_store.nth (Cluster.store (fresh ()) dst) 0 in
      List.iter
        (fun msg ->
          let plane, position = witness msg in
          if plane <> "data" && not (List.mem position (owned_positions name)) then begin
            let cluster = fresh () in
            let ids s = List.sort compare (Server_store.ids (Cluster.store cluster s)) in
            let expected = Array.init 4 ids in
            let mine = expected.(dst) in
            (match msg with
            | Msg.Strategy (Msg.Store e) ->
              expected.(dst) <- List.sort_uniq compare (Entry.id e :: mine)
            | Msg.Strategy (Msg.Remove e) ->
              expected.(dst) <- List.filter (fun id -> id <> Entry.id e) mine
            | Msg.Strategy (Msg.Store_batch es) ->
              expected.(dst) <- List.sort_uniq compare (List.map Entry.id es)
            | Msg.Strategy _ | Msg.Repair _ | Msg.Data _ -> ());
            let what = Printf.sprintf "%s, the %s message at position %d" name plane position in
            (match Net.send (Cluster.net cluster) ~src:Net.Client ~dst msg with
            | Some Msg.Ack -> ()
            | Some _ | None -> Alcotest.failf "%s: no Ack" what);
            for s = 0 to 3 do
              Alcotest.(check (list int)) (Printf.sprintf "%s: server %d" what s) expected.(s)
                (ids s)
            done
          end)
        (every_message
        @ [ Msg.store (Entry.v 12); Msg.store_batch [ Entry.v 30; Entry.v 31; Entry.v 30 ];
            Msg.remove held ]))
    (Strategy_registry.all ())

(* The paper's client for each strategy: one server where every server
   holds the same entries, a y-stride where an entry's copies sit on y
   consecutive servers, random order otherwise.  A new strategy must be
   added here. *)
let expected_discipline name params =
  match (name, params) with
  | ("FullReplication" | "Fixed"), _ -> Strategy_intf.One_server
  | ("RandomServer" | "RandomServerReplacing" | "Hash" | "Chord" | "DxHash" | "MultiProbe"), _ ->
    Strategy_intf.Random
  | ("RoundRobin" | "RoundRobinHA"), y :: _ -> Strategy_intf.Stride y
  | _ -> Alcotest.failf "%s: no expected discipline" name

let test_every_strategy_declares_its_discipline () =
  List.iter
    (fun (module S : Strategy_intf.S) ->
      let m = S.meta in
      let params = params_for m in
      let service =
        Service.create ~seed:2 ~n:4 (Service.v ~kind:m.Strategy_intf.name ~params)
      in
      Helpers.check_bool m.Strategy_intf.name true
        (Service.discipline service = expected_discipline m.Strategy_intf.name params))
    (Strategy_registry.all ())

(* A lookup for no entries, plain or by preference, is a caller's
   error, as on the async client: it raises before contacting or drawing
   anything. *)
let test_every_strategy_rejects_a_nonpositive_target () =
  List.iter
    (fun (module S : Strategy_intf.S) ->
      let m = S.meta in
      let config = Service.v ~kind:m.Strategy_intf.name ~params:(params_for m) in
      let service = Service.create ~seed:4 ~n:4 config in
      Service.place service (Helpers.entries 10);
      let cluster = Service.cluster service in
      Net.reset_counters (Cluster.net cluster);
      let next_draw = Plookup_util.Rng.(int (copy (Cluster.rng cluster)) 1_000_000) in
      List.iter
        (fun t ->
          Alcotest.check_raises
            (Printf.sprintf "%s t=%d" m.Strategy_intf.name t)
            (Invalid_argument "Probe.lookup: t must be positive")
            (fun () -> ignore (Service.partial_lookup service t));
          Alcotest.check_raises
            (Printf.sprintf "%s pref t=%d" m.Strategy_intf.name t)
            (Invalid_argument "Service.partial_lookup_pref: t must be positive")
            (fun () -> ignore (Service.partial_lookup_pref service ~cost:(fun _ -> 0.) t)))
        [ 0; -1; min_int ];
      Helpers.check_int (m.Strategy_intf.name ^ " sent nothing") 0
        (Net.messages_received (Cluster.net cluster));
      Helpers.check_int (m.Strategy_intf.name ^ " drew nothing") next_draw
        (Plookup_util.Rng.int (Cluster.rng cluster) 1_000_000))
    (Strategy_registry.all ())

let () =
  Helpers.run "strategy_registry"
    [ ( "strategy_registry",
        [ Alcotest.test_case "sorted by rank" `Quick test_all_sorted_by_rank;
          Alcotest.test_case "find case-insensitive" `Quick test_find_is_case_insensitive;
          Alcotest.test_case "parse valid" `Quick test_parse_valid;
          Alcotest.test_case "parse invalid" `Quick test_parse_invalid;
          Alcotest.test_case "typo suggestions" `Quick test_suggestions;
          Alcotest.test_case "unknown error lists spellings" `Quick
            test_spelling_in_unknown_error;
          Alcotest.test_case "every message's plane and trace code" `Quick
            test_every_message_planes_and_codes;
          Alcotest.test_case "every strategy handles every message" `Quick
            test_every_strategy_handles_every_message;
          Alcotest.test_case "lookup survives foreign traffic" `Quick
            test_every_strategy_lookup_after_foreign_traffic;
          Alcotest.test_case "default handler contract" `Quick
            test_every_strategy_default_handler_contract;
          Alcotest.test_case "every strategy declares its discipline" `Quick
            test_every_strategy_declares_its_discipline;
          Alcotest.test_case "every strategy rejects a target below 1" `Quick
            test_every_strategy_rejects_a_nonpositive_target ] ) ]
