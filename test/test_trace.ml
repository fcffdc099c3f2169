open Plookup_obs

let detail span =
  match span.Span.kind with
  | Span.Mark { detail; _ } -> detail
  | _ -> Alcotest.fail "expected a mark span"

let mark_label span =
  match span.Span.kind with
  | Span.Mark { label; _ } -> label
  | _ -> Alcotest.fail "expected a mark span"

let test_disabled_by_default () =
  let t = Trace.create () in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Trace.record t ~time:1. ~label:"x" "dropped";
  Helpers.check_int "nothing recorded" 0 (Trace.length t);
  Helpers.check_int "nothing emitted" 0 (Trace.emitted t)

let test_record_and_read () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  Trace.record t ~time:1. ~label:"send" "a";
  Trace.record t ~time:2. ~label:"recv" "b";
  Helpers.check_int "length" 2 (Trace.length t);
  match Trace.spans t with
  | [ r1; r2 ] ->
    Helpers.check_string "label 1" "send" (mark_label r1);
    Helpers.check_string "detail 2" "b" (detail r2);
    Helpers.close "time 1" 1. r1.Span.time;
    Helpers.check_int "monotone ids" (r1.Span.id + 1) r2.Span.id
  | _ -> Alcotest.fail "expected two spans"

let test_ring_eviction () =
  let t = Trace.create ~capacity:3 () in
  Trace.set_enabled t true;
  for i = 1 to 5 do
    Trace.record t ~time:(float_of_int i) ~label:"l" (string_of_int i)
  done;
  Helpers.check_int "capped" 3 (Trace.length t);
  Alcotest.(check (list string)) "oldest evicted" [ "3"; "4"; "5" ]
    (List.map detail (Trace.spans t))

(* Regression: eviction used to be silent, so a truncated dump was
   indistinguishable from a complete one.  The dropped count must say
   exactly how many spans a full dump is missing. *)
let test_eviction_is_counted () =
  let t = Trace.create ~capacity:3 () in
  Trace.set_enabled t true;
  Helpers.check_int "no drops yet" 0 (Trace.dropped t);
  for i = 1 to 10 do
    Trace.record t ~time:(float_of_int i) ~label:"l" (string_of_int i)
  done;
  Helpers.check_int "dropped = emitted - retained" 7 (Trace.dropped t);
  Helpers.check_int "emitted counts everything" 10 (Trace.emitted t);
  Helpers.check_int "invariant" (Trace.emitted t)
    (Trace.length t + Trace.dropped t)

let test_clear () =
  let t = Trace.create ~capacity:2 () in
  Trace.set_enabled t true;
  for i = 1 to 5 do
    Trace.record t ~time:0. ~label:"x" (string_of_int i)
  done;
  Trace.clear t;
  Helpers.check_int "cleared" 0 (Trace.length t);
  Helpers.check_int "dropped reset" 0 (Trace.dropped t);
  Trace.record t ~time:0. ~label:"x" "y";
  match Trace.spans t with
  | [ s ] -> Helpers.check_int "ids restart" 1 s.Span.id
  | _ -> Alcotest.fail "expected one span"

let test_dump () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  Trace.record t ~time:1.5 ~label:"mark" "hello";
  let s = Trace.dump t in
  Alcotest.(check bool) "dump mentions label" true (Helpers.contains s "mark");
  Alcotest.(check bool) "dump mentions detail" true (Helpers.contains s "hello")

let test_bad_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()));
  Alcotest.check_raises "sample 0"
    (Invalid_argument "Trace.create: sample must be in (0, 1]") (fun () ->
      ignore (Trace.create ~sample:0.0 ()));
  Alcotest.check_raises "sample > 1"
    (Invalid_argument "Trace.create: sample must be in (0, 1]") (fun () ->
      ignore (Trace.create ~sample:1.5 ()))

let test_emit_returns_cause_ids () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  let sid =
    Trace.emit t ~time:1.
      (Span.Send { src = Span.Client; dst = 0; plane = "data"; msg = "lookup" })
  in
  ignore
    (Trace.emit t ~time:2. ~cause:sid
       (Span.Recv { src = Span.Client; dst = 0; plane = "data"; msg = "lookup" }));
  match Trace.spans t with
  | [ s; r ] ->
    Helpers.check_int "send id" sid s.Span.id;
    (match r.Span.cause with
    | Some c -> Helpers.check_int "recv caused by send" sid c
    | None -> Alcotest.fail "recv has no cause")
  | _ -> Alcotest.fail "expected two spans"

let test_absorb_remaps_ids () =
  let parent = Trace.create () in
  Trace.set_enabled parent true;
  Trace.record parent ~time:0. ~label:"p" "1";
  Trace.record parent ~time:0. ~label:"p" "2";
  let child = Trace.create () in
  Trace.set_enabled child true;
  let sid = Trace.emit child ~time:1. (Span.Timeout { dst = 3; after = 5. }) in
  ignore (Trace.emit child ~time:1. ~cause:sid (Span.Retry { dst = 3; attempt = 2 }));
  Trace.absorb parent child;
  Helpers.check_int "all spans merged" 4 (Trace.length parent);
  let ids = List.map (fun s -> s.Span.id) (Trace.spans parent) in
  Alcotest.(check (list int)) "ids strictly increasing" [ 1; 2; 3; 4 ] ids;
  (match List.rev (Trace.spans parent) with
  | retry :: timeout :: _ ->
    (match retry.Span.cause with
    | Some c -> Helpers.check_int "cause remapped with ids" timeout.Span.id c
    | None -> Alcotest.fail "retry lost its cause")
  | _ -> Alcotest.fail "expected spans");
  (* Later emissions must not collide with absorbed ids. *)
  Trace.record parent ~time:2. ~label:"p" "3";
  let ids = List.map (fun s -> s.Span.id) (Trace.spans parent) in
  Alcotest.(check (list int)) "fresh id past watermark" [ 1; 2; 3; 4; 5 ] ids

let test_absorb_carries_drops () =
  let parent = Trace.create () in
  Trace.set_enabled parent true;
  let child = Trace.create ~capacity:2 () in
  Trace.set_enabled child true;
  for i = 1 to 5 do
    Trace.record child ~time:0. ~label:"c" (string_of_int i)
  done;
  Trace.absorb parent child;
  Helpers.check_int "child's evictions carried over" 3 (Trace.dropped parent);
  Alcotest.(check (list string)) "retained suffix merged" [ "4"; "5" ]
    (List.map detail (Trace.spans parent))

let test_jsonl_sink_sees_evicted_spans () =
  let path = Filename.temp_file "plookup_trace" ".jsonl" in
  let oc = open_out path in
  let t = Trace.create ~capacity:2 () in
  Trace.add_sink t (Sink.jsonl oc);
  Trace.set_enabled t true;
  for i = 1 to 5 do
    Trace.record t ~time:(float_of_int i) ~label:"l" (string_of_int i)
  done;
  Trace.flush t;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Helpers.check_int "every span streamed despite ring eviction" 5
    (List.length !lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "line is a JSON object" true
        (String.length line > 1 && line.[0] = '{'))
    !lines

let prop_keeps_last_k =
  Helpers.qcheck "ring keeps the most recent capacity spans"
    QCheck2.Gen.(pair (int_range 1 20) (list_size (int_range 0 100) small_int))
    (fun (capacity, xs) ->
      let t = Trace.create ~capacity () in
      Trace.set_enabled t true;
      List.iteri
        (fun i x -> Trace.record t ~time:(float_of_int i) ~label:"n" (string_of_int x))
        xs;
      let expected =
        let k = min capacity (List.length xs) in
        let rec last_k l = if List.length l <= k then l else last_k (List.tl l) in
        List.map string_of_int (last_k xs)
      in
      List.map detail (Trace.spans t) = expected
      && Trace.dropped t = max 0 (List.length xs - capacity))

(* Satellite: Span JSON must round-trip floats that %.6g would flatten
   (times and timeouts beyond 1e6 simulated units). *)
let test_span_float_precision () =
  let json_num json field =
    let needle = Printf.sprintf "\"%s\":" field in
    let rec find i =
      if i + String.length needle > String.length json then
        Alcotest.fail (Printf.sprintf "field %s not in %s" field json)
      else if String.sub json i (String.length needle) = needle then
        i + String.length needle
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while
      !stop < String.length json && (match json.[!stop] with ',' | '}' -> false | _ -> true)
    do
      incr stop
    done;
    float_of_string (String.sub json start (!stop - start))
  in
  List.iter
    (fun x ->
      let span =
        { Span.id = 1; time = x; cause = None; kind = Span.Timeout { dst = 0; after = x } }
      in
      let json = Span.to_json span in
      Alcotest.(check (float 0.)) "time round-trips" x (json_num json "t");
      Alcotest.(check (float 0.)) "after round-trips" x (json_num json "after"))
    [ 8388608.1; 1048576.75; 12345678.5; 1e15 +. 0.5; 0.1; 3.25 ]

(* Sampling keeps or drops whole causal trees, decided at the root from
   a pure hash of the span id — so the sampled drain must be a strict
   subsequence of the unsampled drain with byte-identical per-span JSON,
   every retained cause must resolve, and the minted-span pool must
   account for every id. *)
let prop_sampled_subset =
  Helpers.qcheck "sampled drain is a subset with identical JSON"
    QCheck2.Gen.(pair (int_range 1 9) (list_size (int_range 0 120) (int_range 0 24)))
    (fun (tenths, ops) ->
      let run sample =
        let t = Trace.create ~capacity:4096 ?sample () in
        Trace.set_enabled t true;
        let pm_data = Trace.intern_message t ~plane:"data" ~msg:"lookup" in
        let pm_rep = Trace.intern_message t ~plane:"repair" ~msg:"re_replicate" in
        let last = ref 0 in
        List.iteri
          (fun i op ->
            let time = float_of_int i in
            match op mod 5 with
            | 0 -> last := Trace.emit_send t ~time ~src:(-1) ~dst:(op mod 7) ~pm:pm_data
            | 1 -> Trace.emit_recv t ~time ~cause:!last ~src:(-1) ~dst:(op mod 7) ~pm:pm_data
            | 2 ->
              ignore (Trace.emit_send_recv t ~time ~src:(op mod 3) ~dst:(op mod 7) ~pm:pm_rep)
            | 3 ->
              Trace.emit_drop t ~time ~cause:!last ~src:(op mod 3) ~dst:(op mod 7)
                ~pm:pm_data ~reason:Span.Lost
            | _ ->
              let tid = Trace.emit_timeout t ~time ~dst:(op mod 7) ~after:0.5 in
              Trace.emit_retry t ~time ~cause:tid ~dst:(op mod 7) ~attempt:2)
          ops;
        t
      in
      let full = run None in
      let smp = run (Some (float_of_int tenths /. 10.)) in
      let json t = List.map Span.to_json (Trace.spans t) in
      let rec subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xt, y :: yt -> if String.equal x y then subseq xt yt else subseq xs yt
      in
      let ids = List.map (fun s -> s.Span.id) (Trace.spans smp) in
      let no_dangling =
        List.for_all
          (fun s -> match s.Span.cause with None -> true | Some c -> List.mem c ids)
          (Trace.spans smp)
      in
      subseq (json smp) (json full)
      && no_dangling
      && Trace.emitted smp + Trace.sampled_out smp = Trace.emitted full)

(* The coded ring must decode back exactly what was emitted, across the
   whole cell space: compact and wide actor codes, every drop reason,
   raw floats, interned strings. *)
let prop_decode_roundtrip =
  let open QCheck2.Gen in
  let actor =
    oneof
      [ return Span.Client;
        map (fun i -> Span.Server i) (int_range 0 1000);
        (* beyond the 20-bit compact header range: forces the wide form *)
        map (fun i -> Span.Server (2_000_000 + i)) (int_range 0 1000) ]
  in
  let dst = oneof [ int_range 0 1000; int_range 2_000_000 3_000_000 ] in
  let plane = oneofl [ "data"; "strategy"; "repair" ] in
  let msg = oneofl [ "lookup"; "add"; "delete"; "store_batch" ] in
  let reason = oneofl [ Span.Down; Span.Lost; Span.Shed ] in
  let time = map (fun i -> float_of_int i /. 7.) (int_range 0 10_000_000) in
  let kind =
    oneof
      [ map3 (fun src dst (plane, msg) -> Span.Send { src; dst; plane; msg }) actor dst
          (pair plane msg);
        map3 (fun src dst (plane, msg) -> Span.Recv { src; dst; plane; msg }) actor dst
          (pair plane msg);
        map3
          (fun src dst ((plane, msg), reason) -> Span.Drop { src; dst; plane; msg; reason })
          actor dst
          (pair (pair plane msg) reason);
        map2 (fun dst attempt -> Span.Retry { dst; attempt }) dst (int_range 2 100_000);
        map2 (fun dst after -> Span.Timeout { dst; after }) dst time;
        map3
          (fun coordinator tick (re_replications, trims) ->
            Span.Repair_round { coordinator; tick; re_replications; trims })
          dst (int_range 0 1_000_000)
          (pair (int_range 0 1_000_000) (int_range 0 1_000_000));
        map3 (fun entry src dst -> Span.Migration { entry; src; dst })
          (int_range 0 10_000_000) dst dst;
        map2 (fun label detail -> Span.Mark { label; detail }) plane msg ]
  in
  Helpers.qcheck "coded cells decode back to the emitted span"
    (pair time (small_list kind))
    (fun (t0, kinds) ->
      let t = Trace.create ~capacity:4096 () in
      Trace.set_enabled t true;
      List.iteri (fun i k -> ignore (Trace.emit t ~time:(t0 +. float_of_int i) k)) kinds;
      let decoded = Trace.spans t in
      List.length decoded = List.length kinds
      && List.for_all2
           (fun k s -> s.Span.kind = k)
           kinds decoded
      && List.for_all2
           (fun i s -> s.Span.time = t0 +. float_of_int i)
           (List.init (List.length decoded) Fun.id)
           decoded)

let () =
  Helpers.run "trace"
    [ ( "trace",
        [ Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
          Alcotest.test_case "record/read" `Quick test_record_and_read;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "eviction is counted" `Quick test_eviction_is_counted;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "dump" `Quick test_dump;
          Alcotest.test_case "bad capacity" `Quick test_bad_capacity;
          Alcotest.test_case "emit/cause ids" `Quick test_emit_returns_cause_ids;
          Alcotest.test_case "absorb remaps ids" `Quick test_absorb_remaps_ids;
          Alcotest.test_case "absorb carries drops" `Quick test_absorb_carries_drops;
          Alcotest.test_case "jsonl sink sees everything" `Quick
            test_jsonl_sink_sees_evicted_spans;
          Alcotest.test_case "span float precision" `Quick test_span_float_precision;
          prop_keeps_last_k;
          prop_sampled_subset;
          prop_decode_roundtrip ] ) ]
