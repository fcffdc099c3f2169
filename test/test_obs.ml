(* The observability layer end to end: registry aggregation semantics,
   the JSONL wire format, and the contract a traced experiment honours —
   the span stream and the metrics registry are two views of the same
   traffic, at any worker count. *)

open Plookup_obs
module E = Plookup_experiments

(* ------------------------------------------------------------------ *)
(* Registry *)

(* Cells of the same (name, labels) never alias on the hot path but
   aggregate additively in a snapshot; label order never splits a key. *)
let test_label_cardinality () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("plane", "data"); ("server", "3") ] "msgs" in
  let b = Metrics.counter m ~labels:[ ("server", "3"); ("plane", "data") ] "msgs" in
  let other = Metrics.counter m ~labels:[ ("plane", "repair") ] "msgs" in
  Metrics.add a 5;
  Metrics.add b 7;
  Metrics.incr other;
  Helpers.check_int "cell a stays private" 5 (Metrics.value a);
  Helpers.check_int "cell b stays private" 7 (Metrics.value b);
  (* The two label orderings collapse into one aggregated key, leaving
     exactly two entries. *)
  let snap = Metrics.snapshot m in
  Helpers.check_int "two keys" 2 (List.length snap);
  Helpers.check_int "orderings aggregate" 12
    (Metrics.sum_counters snap ~where:[ ("plane", "data") ] "msgs");
  Helpers.check_int "filter by the other label" 12
    (Metrics.sum_counters snap ~where:[ ("server", "3") ] "msgs");
  Helpers.check_int "unconstrained sum" 13 (Metrics.sum_counters snap "msgs")

let test_snapshot_roundtrip () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("k", "v") ] "c" in
  let g = Metrics.gauge m "g" in
  let h = Metrics.histogram m "h" in
  Metrics.add c 3;
  Metrics.set_gauge g 1.5;
  Metrics.observe h 10.;
  Metrics.observe h 1000.;
  (* Absorbing a snapshot into a fresh registry and re-snapshotting is
     the identity — the merge path Runner relies on. *)
  let m2 = Metrics.create () in
  Metrics.absorb m2 (Metrics.snapshot m);
  Helpers.check_bool "absorb roundtrips" true
    (Metrics.snapshot m = Metrics.snapshot m2);
  (* Absorbing again doubles every additive value. *)
  Metrics.absorb m2 (Metrics.snapshot m);
  let snap2 = Metrics.snapshot m2 in
  Helpers.check_int "counter doubles" 6 (Metrics.sum_counters snap2 "c");
  match List.find_opt (fun e -> e.Metrics.name = "h") snap2 with
  | Some { Metrics.v = Metrics.Histogram { count; sum; _ }; _ } ->
    Helpers.check_int "histogram count doubles" 4 count;
    Helpers.close "histogram sum doubles" 2020. sum
  | _ -> Alcotest.fail "histogram entry missing"

(* The log-scale quantile estimator lands in the same power-of-two
   bucket as the exact sample percentile, so (for values above 1) it is
   within a factor of 2 of Stats.percentile at every rank — the
   documented error bound, checked across the distribution. *)
let test_histogram_quantile_tracks_percentile () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  let samples = Array.init 500 (fun i -> float_of_int (((i * 7919) mod 3000) + 2)) in
  Array.iter (Metrics.observe h) samples;
  List.iter
    (fun q ->
      let est = Metrics.histogram_quantile h q in
      let exact = Plookup_util.Stats.percentile samples q in
      if not (est >= (exact /. 2.) -. 1e-9 && est <= (exact *. 2.) +. 1e-9) then
        Alcotest.failf "q=%g: estimate %g outside factor 2 of exact %g" q est exact)
    [ 0.; 10.; 50.; 90.; 95.; 99.; 99.9; 100. ];
  let p50 = Metrics.histogram_quantile h 50. in
  let p99 = Metrics.histogram_quantile h 99. in
  let p999 = Metrics.histogram_quantile h 99.9 in
  Helpers.check_bool "monotone tail" true (p50 <= p99 && p99 <= p999)

let test_histogram_quantile_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  Helpers.close "empty histogram reports 0" 0. (Metrics.histogram_quantile h 99.);
  Metrics.observe h 100.;
  let est = Metrics.histogram_quantile h 50. in
  Helpers.check_bool "single sample stays in its bucket" true (est >= 64. && est <= 128.);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.histogram_quantile: q must be in [0, 100]") (fun () ->
      ignore (Metrics.histogram_quantile h 101.))

(* The bucket an observation lands in, read from a snapshot. *)
let bucket_index v =
  let m = Metrics.create () in
  Metrics.observe (Metrics.histogram m "v") v;
  match Metrics.snapshot m with
  | [ { Metrics.v = Metrics.Histogram { buckets = [ (b, 1) ]; _ }; _ } ] -> b
  | _ -> Alcotest.fail "one observation should fill one bucket"

(* Bucket b covers (2^(b-1), 2^b]: every power of two and its two
   neighbouring floats, the values at or below 1 in bucket 0, and
   everything past 2^63, +infinity included, in bucket 63. *)
let test_histogram_bucket_edges () =
  let expect what b v =
    let got = bucket_index v in
    if got <> b then Alcotest.failf "%s (%h): bucket %d, expected %d" what v got b
  in
  List.iter
    (fun v -> expect "at or below 1" 0 v)
    [ Float.neg_infinity; -1.; -0.; 0.; Float.min_float; 0.5; Float.pred 1.; 1.; Float.nan ];
  expect "just above 1" 1 (Float.succ 1.);
  for k = 1 to 63 do
    let p = Float.ldexp 1. k in
    expect "power of two" k p;
    expect "below a power of two" k (Float.pred p);
    expect "above a power of two" (min 63 (k + 1)) (Float.succ p)
  done;
  List.iter (fun v -> expect "past the top bound" 63 v) [ 1e30; Float.max_float; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* JSONL sink *)

(* The wire format is a contract for offline tooling: pin it exactly. *)
let test_jsonl_golden () =
  let path = Filename.temp_file "plookup_obs" ".jsonl" in
  let oc = open_out path in
  let t = Trace.create () in
  Trace.add_sink t (Sink.jsonl oc);
  Trace.set_enabled t true;
  let sid =
    Trace.emit t ~time:1.25
      (Span.Send { src = Span.Client; dst = 4; plane = "data"; msg = "lookup" })
  in
  ignore
    (Trace.emit t ~time:2.5 ~cause:sid
       (Span.Recv { src = Span.Client; dst = 4; plane = "data"; msg = "lookup" }));
  ignore
    (Trace.emit t ~time:3.
       (Span.Drop
          { src = Span.Server 1; dst = 2; plane = "repair"; msg = "hint";
            reason = Span.Down }));
  ignore (Trace.emit t ~time:4. ~cause:2 (Span.Timeout { dst = 4; after = 60. }));
  ignore
    (Trace.emit t ~time:5.
       (Span.Repair_round { coordinator = 0; tick = 3; re_replications = 2; trims = 1 }));
  ignore (Trace.emit t ~time:6. (Span.Migration { entry = 17; src = 1; dst = 5 }));
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
  Alcotest.(check (list string))
    "golden lines"
    [ {|{"id":1,"t":1.25,"kind":"send","src":-1,"dst":4,"plane":"data","msg":"lookup"}|};
      {|{"id":2,"t":2.5,"cause":1,"kind":"recv","src":-1,"dst":4,"plane":"data","msg":"lookup"}|};
      {|{"id":3,"t":3.0,"kind":"drop","src":1,"dst":2,"plane":"repair","msg":"hint","reason":"down"}|};
      {|{"id":4,"t":4.0,"cause":2,"kind":"timeout","dst":4,"after":60}|};
      {|{"id":5,"t":5.0,"kind":"repair_round","coordinator":0,"tick":3,"re_replications":2,"trims":1}|};
      {|{"id":6,"t":6.0,"kind":"migration","entry":17,"src":1,"dst":5}|} ]
    (List.rev !lines)

(* ------------------------------------------------------------------ *)
(* A traced experiment run *)

let traced_fig6 ~jobs =
  let obs = Obs.create ~trace_capacity:1_000_000 () in
  Trace.set_enabled obs.Obs.trace true;
  let ctx = E.Ctx.v ~seed:42 ~scale:0.05 ~jobs ~obs () in
  ignore (E.Exp_fig6.run ctx);
  obs

let shared_fig6_obs = lazy (traced_fig6 ~jobs:1)

(* Span ids are fresh and increasing, and every cause link points
   backwards at an id that exists — including across the absorb step
   that folds per-replicate traces into the context's. *)
(* Satellite: ring evictions surface in the registry as the
   [obs.trace.evicted] counter.  Evictions are derived lazily, so the
   metric is synced when the ring becomes observable (a drain), not per
   evicted span. *)
let test_evicted_metric () =
  let obs = Obs.create ~trace_capacity:3 () in
  Trace.set_enabled obs.Obs.trace true;
  let evicted () = Metrics.sum_counters (Metrics.snapshot obs.Obs.metrics) "obs.trace.evicted" in
  Helpers.check_int "starts at zero" 0 (evicted ());
  for i = 1 to 10 do
    Trace.record obs.Obs.trace ~time:(float_of_int i) ~label:"l" (string_of_int i)
  done;
  ignore (Trace.spans obs.Obs.trace);
  Helpers.check_int "evictions mirrored at drain" 7 (evicted ());
  (* Draining again without new traffic adds nothing. *)
  ignore (Trace.spans obs.Obs.trace);
  Helpers.check_int "idempotent per eviction" 7 (evicted ())

let test_fig6_links_well_formed () =
  let obs = Lazy.force shared_fig6_obs in
  let spans = Trace.spans obs.Obs.trace in
  Helpers.check_bool "run retained a real span stream" true
    (List.length spans > 1000);
  Helpers.check_int "nothing evicted at this capacity" 0
    (Trace.dropped obs.Obs.trace);
  let by_id = Hashtbl.create 4096 in
  let last = ref 0 in
  List.iter
    (fun s ->
      if s.Span.id <= !last then
        Alcotest.failf "span ids not strictly increasing at #%d" s.Span.id;
      last := s.Span.id;
      (match s.Span.cause with
      | None -> ()
      | Some c ->
        if c >= s.Span.id then Alcotest.failf "cause of #%d points forward" s.Span.id;
        if not (Hashtbl.mem by_id c) then
          Alcotest.failf "cause of #%d names an unknown span" s.Span.id);
      Hashtbl.replace by_id s.Span.id s)
    spans;
  (* Every Recv resolves a Send for the same destination. *)
  List.iter
    (fun s ->
      match s.Span.kind with
      | Span.Recv { dst; _ } -> (
        match s.Span.cause with
        | None -> Alcotest.fail "recv without a cause"
        | Some c -> (
          match (Hashtbl.find by_id c).Span.kind with
          | Span.Send { dst = sent_to; _ } ->
            Helpers.check_int "recv caused by its own send" dst sent_to
          | _ -> Alcotest.fail "recv cause is not a send"))
      | _ -> ())
    spans

(* The acceptance check from the issue: per-plane Recv span counts equal
   the registry's per-plane received counters. *)
let test_fig6_spans_agree_with_registry () =
  let obs = Lazy.force shared_fig6_obs in
  let spans = Trace.spans obs.Obs.trace in
  let snap = Metrics.snapshot obs.Obs.metrics in
  let span_recvs plane =
    List.length
      (List.filter
         (fun s ->
           match s.Span.kind with
           | Span.Recv { plane = p; _ } -> p = plane
           | _ -> false)
         spans)
  in
  List.iter
    (fun plane ->
      Helpers.check_int
        (Printf.sprintf "plane %s: spans = registry" plane)
        (Metrics.sum_counters snap ~where:[ ("plane", plane) ] "net.messages.received")
        (span_recvs plane))
    [ "data"; "strategy"; "repair" ];
  (* And the plane cells partition the Recv total. *)
  Helpers.check_int "planes partition the total"
    (List.fold_left
       (fun acc plane ->
         acc
         + Metrics.sum_counters snap ~where:[ ("plane", plane) ] "net.messages.received")
       0
       [ "data"; "strategy"; "repair" ])
    (List.length
       (List.filter
          (fun s -> match s.Span.kind with Span.Recv _ -> true | _ -> false)
          spans))

(* Metrics and traces merge in replicate input order: a run's
   observability is byte-identical at any worker count, like its
   tables. *)
let test_jobs_determinism () =
  let a = Lazy.force shared_fig6_obs in
  let b = traced_fig6 ~jobs:4 in
  Helpers.check_bool "metrics identical at jobs=1 vs jobs=4" true
    (Metrics.snapshot a.Obs.metrics = Metrics.snapshot b.Obs.metrics);
  let render obs =
    String.concat "\n" (List.map Span.to_json (Trace.spans obs.Obs.trace))
  in
  Helpers.check_string "trace identical at jobs=1 vs jobs=4" (render a) (render b)

let () =
  Helpers.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "label cardinality" `Quick test_label_cardinality;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "quantile tracks percentile" `Quick
            test_histogram_quantile_tracks_percentile;
          Alcotest.test_case "quantile edges" `Quick test_histogram_quantile_edges;
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges ] );
      ("sink", [ Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden ]);
      ( "evicted",
        [ Alcotest.test_case "evictions reach the registry" `Quick test_evicted_metric ] );
      ( "fig6",
        [ Alcotest.test_case "cause links well-formed" `Quick
            test_fig6_links_well_formed;
          Alcotest.test_case "spans agree with registry" `Quick
            test_fig6_spans_agree_with_registry;
          Alcotest.test_case "jobs=1 equals jobs=4" `Quick test_jobs_determinism ] ) ]
