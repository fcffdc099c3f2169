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

(* A family is a registry item holding one array for many instruments;
   its reference is one labelled cell per index, registered where the
   family is.  Each random program registers families and plain
   instruments whose keys collide with family members (same name, a
   label list equal to a member's), and interleaves increments and
   resets of both, sets of both kinds of gauge, and the plain cells'
   adds and gauge adds.  Both registries must then agree on every
   reading: the snapshot (gauge sums included, so merge order too), its
   JSON, [sum_counters] under several filters, and the snapshot after
   each absorbs its own snapshot with extra labels.  Counter and gauge
   names differ, so kinds never clash. *)
type instrument_spec =
  | Family of {
      gauge : bool;
      name : string;
      labels : (string * string) list;
      label : string;
      n : int;
    }
  | Plain of { gauge : bool; name : string; labels : (string * string) list }

type action =
  | Register of instrument_spec
  | Touch of { which : int; index : int; op : int; v : float }

(* An instrument in the family registry and its reference twin. *)
type twin =
  | Counter_family of Metrics.counters * Metrics.counter array
  | Gauge_family of Metrics.gauges * Metrics.gauge array
  | Counter_cell of Metrics.counter * Metrics.counter
  | Gauge_cell of Metrics.gauge * Metrics.gauge

let gen_registry_program =
  let open QCheck2.Gen in
  let spec =
    let* gauge = bool and* k = int_bound 1 in
    let name = Printf.sprintf "%s%d" (if gauge then "g" else "c") k in
    oneof
      [ (let* labels = oneofl [ []; [ ("plane", "x") ] ]
         and* label = oneofl [ "server"; "shard" ]
         and* n = int_range 1 4 in
         return (Family { gauge; name; labels; label; n }));
        (let* labels =
           oneofl
             [ [];
               [ ("server", "0") ];
               [ ("server", "1") ];
               [ ("server", "3") ];
               [ ("shard", "0") ];
               [ ("plane", "x") ];
               [ ("server", "1"); ("plane", "x") ] ]
         in
         return (Plain { gauge; name; labels })) ]
  in
  let touch =
    let+ which = nat and+ index = nat and+ op = int_bound 3
    and+ v = float_range (-100.) 100. in
    Touch { which; index; op; v }
  in
  let* actions =
    list_size (int_range 1 40) (frequency [ (1, map (fun s -> Register s) spec); (3, touch) ])
  in
  let* extra = oneofl [ []; [ ("plane", "x") ]; [ ("strategy", "s") ] ] in
  return (actions, extra)

let run_registry_program actions =
  let fam = Metrics.create () and reference = Metrics.create () in
  let twins = ref [||] in
  let register = function
    | Family { gauge = false; name; labels; label; n } ->
      Counter_family
        ( Metrics.counters fam ~labels ~label name n,
          Array.init n (fun i ->
              Metrics.counter reference ~labels:((label, string_of_int i) :: labels) name) )
    | Family { gauge = true; name; labels; label; n } ->
      Gauge_family
        ( Metrics.gauges fam ~labels ~label name n,
          Array.init n (fun i ->
              Metrics.gauge reference ~labels:((label, string_of_int i) :: labels) name) )
    | Plain { gauge = false; name; labels } ->
      Counter_cell (Metrics.counter fam ~labels name, Metrics.counter reference ~labels name)
    | Plain { gauge = true; name; labels } ->
      Gauge_cell (Metrics.gauge fam ~labels name, Metrics.gauge reference ~labels name)
  in
  let touch twin index op v =
    let amount = int_of_float v in
    match twin with
    | Counter_family (cs, cells) ->
      let i = index mod Array.length cells in
      if op < 3 then begin
        Metrics.incr_at cs i;
        Metrics.incr cells.(i)
      end
      else begin
        Metrics.reset_counters cs;
        Array.iter Metrics.reset_counter cells
      end
    | Gauge_family (gs, cells) ->
      let i = index mod Array.length cells in
      Metrics.set_gauge_at gs i v;
      Metrics.set_gauge cells.(i) v
    | Counter_cell (a, b) -> (
      match op with
      | 0 ->
        Metrics.incr a;
        Metrics.incr b
      | 1 | 2 ->
        Metrics.add a amount;
        Metrics.add b amount
      | _ ->
        Metrics.reset_counter a;
        Metrics.reset_counter b)
    | Gauge_cell (a, b) ->
      if op land 1 = 0 then begin
        Metrics.set_gauge a v;
        Metrics.set_gauge b v
      end
      else begin
        Metrics.add_gauge a v;
        Metrics.add_gauge b v
      end
  in
  List.iter
    (function
      | Register spec -> twins := Array.append !twins [| register spec |]
      | Touch { which; index; op; v } ->
        let n = Array.length !twins in
        if n > 0 then touch !twins.(which mod n) index op v)
    actions;
  (fam, reference, !twins)

(* Every family index reads what its reference cell reads. *)
let twins_agree twins =
  Array.for_all
    (function
      | Counter_family (cs, cells) ->
        Array.for_all Fun.id
          (Array.mapi (fun i c -> Metrics.value_at cs i = Metrics.value c) cells)
        && Metrics.total cs = Array.fold_left (fun acc c -> acc + Metrics.value c) 0 cells
      | Gauge_family (gs, cells) ->
        Array.for_all Fun.id
          (Array.mapi (fun i g -> Metrics.gauge_value_at gs i = Metrics.gauge_value g) cells)
      | Counter_cell _ | Gauge_cell _ -> true)
    twins

let prop_families_match_cells =
  Helpers.qcheck ~count:500 "families read as one labelled cell per index"
    gen_registry_program
    (fun (actions, extra_labels) ->
      let fam, reference, twins = run_registry_program actions in
      let a = Metrics.snapshot fam and b = Metrics.snapshot reference in
      let sums snap =
        List.concat_map
          (fun name ->
            List.map
              (fun where -> Metrics.sum_counters snap ~where name)
              [ []; [ ("server", "1") ]; [ ("plane", "x") ]; [ ("shard", "0") ];
                [ ("plane", "x"); ("server", "0") ] ])
          [ "c0"; "c1" ]
      in
      Metrics.absorb fam ~extra_labels a;
      Metrics.absorb reference ~extra_labels b;
      twins_agree twins
      && a = b
      && String.equal (Metrics.to_json a) (Metrics.to_json b)
      && sums a = sums b
      && Metrics.snapshot fam = Metrics.snapshot reference)

(* [absorb] folds every entry of a key into one sum.  A registry with a
   few live instruments absorbs R random child snapshots, each under
   extra labels that can make its keys meet a live one's.  It must then
   hold one cell per live instrument and one per distinct absorbed key,
   leave every live instrument reading what it was set to, and snapshot
   exactly as the append-only absorb below does.  Values are whole
   numbers, so float sums are exact in any order. *)
type child_instrument = { ckind : int; cname : int; clabels : (string * string) list; cv : int }

let gen_absorb_program =
  let open QCheck2.Gen in
  let instrument =
    let+ ckind = int_bound 2 and+ cname = int_bound 1
    and+ clabels = oneofl [ []; [ ("server", "1") ]; [ ("plane", "x"); ("server", "1") ] ]
    and+ cv = int_range 0 5000 in
    { ckind; cname; clabels; cv }
  in
  let merge =
    pair
      (oneofl [ []; [ ("plane", "x") ]; [ ("strategy", "s") ] ])
      (list_size (int_range 0 6) instrument)
  in
  pair (list_size (int_range 0 3) instrument) (list_size (int_range 1 8) merge)

(* One name per kind and index, so kinds never share a key. *)
let instrument_name i = Printf.sprintf "%s%d" [| "c"; "g"; "h" |].(i.ckind) i.cname

(* Registers [i] in [m] and gives it its value; returns its reading. *)
let make_instrument m i =
  let name = instrument_name i and labels = i.clabels in
  match i.ckind with
  | 0 ->
    let c = Metrics.counter m ~labels name in
    Metrics.add c i.cv;
    fun () -> float_of_int (Metrics.value c)
  | 1 ->
    let g = Metrics.gauge m ~labels name in
    Metrics.set_gauge g (float_of_int i.cv);
    fun () -> Metrics.gauge_value g
  | _ ->
    let h = Metrics.histogram m ~labels name in
    Metrics.observe h (float_of_int i.cv);
    Metrics.observe h (float_of_int (i.cv / 3));
    fun () -> float_of_int (Metrics.histogram_count h)

let canonical labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

(* The absorb that appends every entry as an item of its own, summed
   only at snapshot time: [base] is the live instruments' snapshot, and
   each merge's entries are added to it by (name, labels) key. *)
let append_only_snapshot base merges =
  let tbl = Hashtbl.create 16 in
  let add key v =
    let v =
      match (Hashtbl.find_opt tbl key, v) with
      | None, v -> v
      | Some (Metrics.Counter a), Metrics.Counter b -> Metrics.Counter (a + b)
      | Some (Metrics.Gauge a), Metrics.Gauge b -> Metrics.Gauge (a +. b)
      | Some (Metrics.Histogram a), Metrics.Histogram b ->
        let counts = Array.make 64 0 in
        List.iter (fun (i, n) -> counts.(i) <- counts.(i) + n) (a.buckets @ b.buckets);
        let buckets =
          List.filter (fun (_, n) -> n > 0) (List.mapi (fun i n -> (i, n)) (Array.to_list counts))
        in
        Metrics.Histogram { buckets; count = a.count + b.count; sum = a.sum +. b.sum }
      | Some _, _ -> Alcotest.fail "kinds clash"
    in
    Hashtbl.replace tbl key v
  in
  List.iter (fun (e : Metrics.entry) -> add (e.name, e.labels) e.v) base;
  List.iter
    (fun (extra, entries) ->
      List.iter (fun (e : Metrics.entry) -> add (e.name, canonical (e.labels @ extra)) e.v) entries)
    merges;
  Hashtbl.fold (fun (name, labels) v acc -> { Metrics.name; labels; v } :: acc) tbl []
  |> List.sort (fun (a : Metrics.entry) b -> compare (a.name, a.labels) (b.name, b.labels))

let prop_absorb_folds_keys =
  Helpers.qcheck ~count:300 "absorb keeps one cell per key" gen_absorb_program
    (fun (live, merges) ->
      let m = Metrics.create () and live_only = Metrics.create () in
      let readings = List.map (make_instrument m) live in
      List.iter (fun i -> ignore (make_instrument live_only i : unit -> float)) live;
      let before = List.map (fun read -> read ()) readings in
      let merges =
        List.map
          (fun (extra, instruments) ->
            let child = Metrics.create () in
            List.iter (fun i -> ignore (make_instrument child i : unit -> float)) instruments;
            (extra, Metrics.snapshot child))
          merges
      in
      List.iter (fun (extra_labels, snap) -> Metrics.absorb m ~extra_labels snap) merges;
      let absorbed_keys =
        List.concat_map
          (fun (extra, snap) ->
            List.map (fun (e : Metrics.entry) -> (e.name, canonical (e.labels @ extra))) snap)
          merges
        |> List.sort_uniq compare
      in
      Metrics.length m = List.length live + List.length absorbed_keys
      && List.map (fun read -> read ()) readings = before
      && Metrics.snapshot m = append_only_snapshot (Metrics.snapshot live_only) merges)

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
          { src = Span.Server 1; dst = 2; plane = "repair"; msg = "digest_pull";
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
      {|{"id":3,"t":3.0,"kind":"drop","src":1,"dst":2,"plane":"repair","msg":"digest_pull","reason":"down"}|};
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

(* A traced run's spans agree with its registry: Recv spans per plane
   equal [net.messages.received{plane}] and the three planes partition
   them, Down drops equal [net.messages.dropped], Shed drops
   [net.messages.shed], and every Send resolves into exactly one Recv or
   Drop.  Runs with faults cannot agree: a duplicated copy is a second
   Recv, and a lost reply leg counts without a span. *)
let check_spans_agree obs =
  let spans = Trace.spans obs.Obs.trace in
  let snap = Metrics.snapshot obs.Obs.metrics in
  Helpers.check_int "nothing evicted" 0 (Trace.dropped obs.Obs.trace);
  let count p = List.length (List.filter (fun s -> p s.Span.kind) spans) in
  let planes = [ "data"; "strategy"; "repair" ] in
  let received plane =
    Metrics.sum_counters snap ~where:[ ("plane", plane) ] "net.messages.received"
  in
  List.iter
    (fun plane ->
      Helpers.check_int
        (Printf.sprintf "plane %s: Recv spans = received" plane)
        (received plane)
        (count (function Span.Recv { plane = p; _ } -> p = plane | _ -> false)))
    planes;
  Helpers.check_int "planes partition the Recv spans"
    (List.fold_left (fun acc plane -> acc + received plane) 0 planes)
    (count (function Span.Recv _ -> true | _ -> false));
  let drops reason = count (function Span.Drop d -> d.reason = reason | _ -> false) in
  Helpers.check_int "Down drops = dropped"
    (Metrics.sum_counters snap "net.messages.dropped") (drops Span.Down);
  Helpers.check_int "Shed drops = shed" (Metrics.sum_counters snap "net.messages.shed")
    (drops Span.Shed);
  let sends = Hashtbl.create 4096 in
  List.iter
    (fun s -> match s.Span.kind with Span.Send _ -> Hashtbl.replace sends s.Span.id 0 | _ -> ())
    spans;
  List.iter
    (fun s ->
      match (s.Span.kind, s.Span.cause) with
      | (Span.Recv _ | Span.Drop _), Some c when Hashtbl.mem sends c ->
        Hashtbl.replace sends c (Hashtbl.find sends c + 1)
      | (Span.Recv _ | Span.Drop _), _ ->
        Alcotest.failf "span #%d resolves no Send" s.Span.id
      | _ -> ())
    spans;
  Helpers.check_bool "run sent a real stream" true (Hashtbl.length sends > 1000);
  Hashtbl.iter
    (fun id n -> if n <> 1 then Alcotest.failf "Send #%d resolves into %d spans" id n)
    sends

let test_fig6_spans_agree_with_registry () = check_spans_agree (Lazy.force shared_fig6_obs)

(* The same check on experiments whose clusters fail servers, shed load,
   run repair and drive the engine, each at scale 0.05 with no faults.
   Experiments that reset the network's counters mid-run are left out. *)
let test_spans_agree_with_registry run () =
  let obs = Obs.create ~trace_capacity:10_000_000 () in
  Trace.set_enabled obs.Obs.trace true;
  ignore (run (E.Ctx.v ~seed:42 ~scale:0.05 ~obs ()));
  check_spans_agree obs

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
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          prop_families_match_cells;
          prop_absorb_folds_keys ] );
      ("sink", [ Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden ]);
      ( "evicted",
        [ Alcotest.test_case "evictions reach the registry" `Quick test_evicted_metric ] );
      ( "fig6",
        [ Alcotest.test_case "cause links well-formed" `Quick
            test_fig6_links_well_formed;
          Alcotest.test_case "spans agree with registry" `Quick
            test_fig6_spans_agree_with_registry;
          Alcotest.test_case "jobs=1 equals jobs=4" `Quick test_jobs_determinism ] );
      ( "spans",
        List.map
          (fun (id, run) ->
            Alcotest.test_case (id ^ " agrees with the registry") `Quick
              (test_spans_agree_with_registry run))
          [ ("day", E.Exp_day.run);
            ("churn", E.Exp_churn.run);
            ("latency", E.Exp_latency.run);
            ("table1", E.Exp_table1.run) ] ) ]
