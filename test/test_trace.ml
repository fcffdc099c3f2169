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
      ignore (Trace.create ~capacity:0 ()))

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

(* Every coded emitter writes the same spans on its inline fast path
   (tracing on, no sink, actors that fit the compact header) as on its
   general body (a sink attached, or actors past 2^20): the same random
   emits into a sink-free trace and into one streaming JSONL drain the
   same JSON, the stream is that drain, and every emitted span is
   drained. *)
let prop_emit_paths_agree =
  let open QCheck2.Gen in
  let near_2_20 = int_range 1_048_570 1_048_580 in
  let src = oneof [ int_range (-1) 1000; near_2_20; int_range 2_000_000 3_000_000 ] in
  let dst = oneof [ int_range 0 1000; near_2_20; int_range 2_000_000 3_000_000 ] in
  let op = pair (int_range 0 8) (triple src dst (int_range 0 1)) in
  Helpers.qcheck "fast and general emit paths agree" (list_size (int_range 0 80) op)
    (fun ops ->
      let run t =
        Trace.set_enabled t true;
        let pms =
          [| Trace.intern_message t ~plane:"data" ~msg:"lookup";
             Trace.intern_message t ~plane:"repair" ~msg:"re_replicate" |]
        in
        let last = ref 0 in
        List.iteri
          (fun i (k, (src, dst, p)) ->
            let time = float_of_int i /. 3. and pm = pms.(p) in
            match k with
            | 0 -> last := Trace.emit_send t ~time ~src ~dst ~pm
            | 1 -> Trace.emit_recv t ~time ~cause:!last ~src ~dst ~pm
            | 2 | 3 | 4 ->
              let reason = [| Span.Down; Span.Lost; Span.Shed |].(k - 2) in
              Trace.emit_drop t ~time ~cause:!last ~src ~dst ~pm ~reason
            | 5 -> last := Trace.emit_send_recv t ~time ~src ~dst ~pm
            | 6 ->
              let tid = Trace.emit_timeout t ~time ~dst ~after:(time +. 0.5) in
              Trace.emit_retry t ~time ~cause:tid ~dst ~attempt:(2 + p)
            | 7 -> Trace.emit_migration t ~time ~entry:i ~src:(src + 1) ~dst
            | _ ->
              Trace.emit_repair_round t ~time ~coordinator:dst ~tick:i ~re_replications:p
                ~trims:(src + 1))
          ops
      in
      let fast = Trace.create ~capacity:4096 () in
      run fast;
      let path = Filename.temp_file "plookup_trace" ".jsonl" in
      let oc = open_out path in
      let general = Trace.create ~capacity:4096 () in
      Trace.add_sink general (Sink.jsonl oc);
      run general;
      Trace.flush general;
      close_out oc;
      let stream = In_channel.with_open_text path In_channel.input_all in
      Sys.remove path;
      let drained = Trace.spans fast in
      let json spans = String.concat "" (List.map (fun s -> Span.to_json s ^ "\n") spans) in
      json drained = json (Trace.spans general)
      && stream = json drained
      && Trace.emitted fast = List.length drained
      && Trace.emitted general = List.length drained)

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
          prop_emit_paths_agree;
          prop_decode_roundtrip ] ) ]
