(* Benchmark harness: the baseline writer.

   Each part measures one layer and returns typed rows (baseline.ml);
   one emitter prints them as a table and writes them to a tracked
   BENCH_*.json file that check_regress gates.  It takes no arguments,
   so the committed baselines and a CI run always measure the same
   work at the same sizes.  The paper's tables and the ablations are
   experiments: `plookup run` prints them. *)

open Plookup
open Plookup_store
open Plookup_util
module Metrics = Plookup_metrics
module Net = Plookup_net.Net
module E = Plookup_experiments

(* ------------------------------------------------------------------ *)
(* Baseline rows: one timing loop, one row maker, one emitter          *)

(* Every rate comes from this loop.  Each case is a window of [ops]
   operations; the cases run interleaved over 40 rounds, alternating
   direction, and each keeps its fastest window.  One long
   shot per case confounds it with CPU frequency drift and lets one
   burst of competing host load poison a whole row; with short windows
   and many rounds, noise can only lose a window, never bias the best. *)
let best_rates cases =
  let m = Array.length cases in
  let best = Array.make m infinity in
  for round = 1 to 40 do
    for j = 0 to m - 1 do
      let k = if round land 1 = 0 then m - 1 - j else j in
      let t0 = Unix.gettimeofday () in
      snd cases.(k) ();
      best.(k) <- Float.min best.(k) (Unix.gettimeofday () -. t0)
    done
  done;
  Array.mapi (fun k (ops, _) -> float_of_int ops /. Float.max 1e-6 best.(k)) cases

(* Values are rounded here, once, to the precision they are reported
   at: the file, the console and the gate all show that decimal. *)
let row ?(digits = 0) ?(better = Baseline.Higher) ?limit ?fresh_limit ~unit layer metric key v =
  { Baseline.layer;
    metric;
    key;
    value = float_of_string (Printf.sprintf "%.*f" digits v);
    unit;
    better;
    limit;
    fresh_limit }

(* Rate rows for [(layer, metric, key, ops, window)] cases timed
   together by [best_rates]. *)
let rate_rows cases =
  let rates = best_rates (Array.of_list (List.map (fun (_, _, _, ops, f) -> (ops, f)) cases)) in
  List.mapi (fun i (layer, metric, key, _, _) -> row ~unit:"1/s" layer metric key rates.(i)) cases

let manifest =
  [ ("ocaml", Json.Str Sys.ocaml_version);
    ("profile", Json.Str Build_profile.name);
    ("cores", Json.Num (float_of_int (Pool.recommended_jobs ()))) ]

let emit file ~benchmark (params, rows) =
  let table =
    Table.create ~title:(benchmark ^ " -> " ^ file)
      ~columns:[ "layer"; "metric"; "key"; "value"; "unit" ]
  in
  List.iter
    (fun (r : Baseline.row) ->
      Table.add_row table
        [ Table.S r.layer; Table.S r.metric; Table.S r.key; Table.S (Baseline.number r.value);
          Table.S r.unit ])
    rows;
  Table.print table;
  Baseline.write file ~benchmark ~params:(params @ manifest) rows;
  Printf.printf "(wrote %s)\n" file

(* [cell table name row]: the cell of [row] in the column [name] of [table]. *)
let cell table name =
  let rec index i = function
    | [] -> failwith ("bench: no column " ^ name)
    | c :: rest -> if c = name then i else index (i + 1) rest
  in
  let i = index 0 (Table.columns table) in
  fun cells -> List.nth cells i

(* One named column of an experiment table, top to bottom. *)
let column table name = List.map (cell table name) (Table.rows table)

let texts table name = List.map Table.cell_to_string (column table name)

let number name = function
  | Table.F f | Table.F4 f -> f
  | Table.I i -> float_of_int i
  | Table.S s -> failwith (Printf.sprintf "bench: text %S in column %s" s name)

let numbers table name = List.map (number name) (column table name)

(* [where client table read name]: column [name] on the rows of [client]. *)
let where client table read name =
  List.combine (texts table "client") (read table name)
  |> List.filter_map (fun (c, v) -> if c = client then Some v else None)

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Part 1: churn/repair benchmark -> BENCH_repair.json                  *)

(* The churn experiment's repaired rows: what the full self-healing
   stack (recovery sync + daemon) buys and what it
   costs, per strategy: lookup success rate, stale reads, mean
   time-to-restore-degree (when any degree was lost) and repair
   messages.  At scale 0.4 the churned horizon is 2000 time units. *)
let bench_repair () =
  let scale = 0.4 in
  let table = E.Exp_churn.run (E.Ctx.v ~seed:42 ~scale ()) in
  let text name r = Table.cell_to_string (cell table name r) in
  let value name r = number name (cell table name r) in
  let strategy r =
    let key = text "strategy" r in
    [ row ~digits:2 ~unit:"%" "repair" "success_pct" key (value "success %" r);
      row ~better:Lower ~unit:"entries" "repair" "stale_reads" key (value "stale reads" r) ]
    @ (if text "restore time" r = "-" then []
       else
         [ row ~digits:4 ~better:Lower ~unit:"time" "repair" "restore_time" key
             (value "restore time" r) ])
    @ [ row ~better:Lower ~unit:"msgs" "repair" "messages" key (value "repair msgs" r) ]
  in
  ( Json.[ ("seed", Num 42.); ("scale", Num scale); ("repair", Str "full") ],
    List.concat_map strategy
      (List.filter (fun r -> text "repair" r = "full") (Table.rows table)) )

(* ------------------------------------------------------------------ *)
(* Part 2: core throughput -> BENCH_core.json                           *)

(* Sustained throughput of the per-event hot paths the engine and the
   strategies run on. *)
let bench_core () =
  let n = 10 and h = 100 and t = 35 in
  (* Engine events/sec: schedule-then-fire batches through the queue,
     with a slice of same-batch cancellations to exercise the lazy
     cancellation path the experiments lean on. *)
  let engine = Plookup_sim.Engine.create () in
  let batch = 1000 and batches = 20 in
  let handles = Array.make batch None in
  let fired = ref 0 and round = ref 0 in
  let engine_window () =
    for _ = 1 to batches do
      incr round;
      let base = Plookup_sim.Engine.now engine in
      for i = 0 to batch - 1 do
        handles.(i) <-
          Some
            (Plookup_sim.Engine.schedule_at engine
               ~time:(base +. float_of_int ((i + !round) mod 97))
               (fun _ -> incr fired))
      done;
      (* Cancel a tenth of each batch before it fires. *)
      for i = 0 to (batch / 10) - 1 do
        Option.iter (Plookup_sim.Engine.cancel engine) handles.(i * 10)
      done;
      ignore (Plookup_sim.Engine.run engine)
    done
  in
  (* Lookups/sec per strategy at the paper's t=35 working point, and
     updates/sec (one add + one delete) for the same five strategies —
     FullReplication's update is the paper's worst case (every add and
     delete touches all n servers), so its row is the one a
     placement-path regression moves first. *)
  let configs =
    [ Service.full_replication; Service.fixed 50; Service.random_server 20;
      Service.round_robin 2; Service.hash 2 ]
  in
  let placed config =
    let service = Service.create ~seed:3 ~n config in
    Service.place service (Entry.Gen.batch (Entry.Gen.create ()) h);
    service
  in
  let lookup_window = 500 and update_window = 1000 in
  let next = ref 1_000_000 in
  let lookups config =
    let service = placed config in
    ( "service", "lookups_per_sec", Service.config_name config, lookup_window,
      fun () ->
        for _ = 1 to lookup_window do
          ignore (Service.partial_lookup service t)
        done )
  in
  let updates config =
    let service = placed config in
    ( "service", "updates_per_sec", Service.config_name config, update_window,
      fun () ->
        for _ = 1 to update_window do
          incr next;
          Service.add service (Entry.v !next);
          Service.delete service (Entry.v !next)
        done )
  in
  (* Messages per op beside each rate row, counted over one untimed
     window on a freshly placed service, so a rate regression shows
     whether the message count or the ns per message moved.  An update
     is the rate row's op: one add and one delete. *)
  let messages metric window op config =
    let service = placed config in
    let net = Cluster.net (Service.cluster service) in
    Net.reset_counters net;
    for i = 1 to window do
      op service i
    done;
    row ~digits:3 ~better:Lower ~unit:"msgs" "service" metric (Service.config_name config)
      (float_of_int (Net.messages_received net) /. float_of_int window)
  in
  let lookup_msgs =
    messages "msgs_per_lookup" lookup_window (fun service _ ->
        ignore (Service.partial_lookup service t))
  in
  let update_msgs =
    messages "msgs_per_update" update_window (fun service i ->
        Service.add service (Entry.v (h + i));
        Service.delete service (Entry.v (h + i)))
  in
  (* The store layer under update churn: a cycle removes a stored entry
     and adds it back, walking a store of 10 and of 10,000 entries in
     id order.  [store_ops_per_sec] counts the remove and the add as
     two ops.  [words_per_cycle] is the minor words of one untimed
     window on the filled store, exact for a given binary. *)
  let store_window = 10_000 in
  let store size =
    let s = Server_store.create () in
    let entries = Array.of_list (Entry.Gen.batch (Entry.Gen.create ()) size) in
    Array.iter (fun e -> ignore (Server_store.add s e)) entries;
    let next = ref 0 in
    let window () =
      for _ = 1 to store_window do
        let e = entries.(!next) in
        next := if !next = size - 1 then 0 else !next + 1;
        ignore (Server_store.remove s e);
        ignore (Server_store.add s e)
      done
    in
    let key = Printf.sprintf "entries=%d" size in
    let words0 = Gc.minor_words () in
    window ();
    let words = Gc.minor_words () -. words0 in
    ( row ~digits:4 ~better:Lower ~unit:"words" "store" "words_per_cycle" key
        (words /. float_of_int store_window),
      ("store", "store_ops_per_sec", key, 2 * store_window, window) )
  in
  let stores = List.map store [ 10; 10_000 ] in
  (* Minor words per asynchronous lookup, launch to callback, for the
     eight strategies of bench/e2e's crowd: one lookup at a time on
     healthy servers with no capacity model, each walking an order drawn
     from its strategy's discipline.  One lookup first makes the
     cluster's answer set and sizes the engine's queue.  Exact for a
     given binary. *)
  let async_lookup_window = 500 in
  let async_words name =
    let config =
      match Service.config_of_string name with Ok c -> c | Error e -> failwith e
    in
    let service = placed config in
    let cluster = Service.cluster service in
    let engine = Plookup_sim.Engine.create () in
    Net.attach_engine (Cluster.net cluster) engine;
    let order_rng = Rng.create 3 in
    let orders =
      Array.init (async_lookup_window + 1) (fun _ ->
          Probe.order_list (Service.discipline service) order_rng ~n)
    in
    let lookup order =
      Async_client.lookup cluster engine ~latency:(fun () -> 10.) ~timeout:100. ~order ~t
        ignore;
      ignore (Plookup_sim.Engine.run engine)
    in
    lookup orders.(async_lookup_window);
    let words0 = Gc.minor_words () in
    for i = 0 to async_lookup_window - 1 do
      lookup orders.(i)
    done;
    let words = Gc.minor_words () -. words0 in
    row ~digits:2 ~better:Lower ~unit:"words" "client" "words_per_async_lookup"
      (Service.config_name config)
      (words /. float_of_int async_lookup_window)
  in
  let async_lookups =
    List.map async_words
      [ "full"; "fixed-40"; "randomserver-20"; "roundrobin-2"; "hash-2"; "chord-2";
        "dxhash-2"; "multiprobe-2x2" ]
  in
  ( Json.
      [ ("seed", Num 3.); ("n", Num (float_of_int n)); ("h", Num (float_of_int h));
        ("t", Num (float_of_int t)); ("engine_window", Num (float_of_int (batch * batches)));
        ("lookup_window", Num (float_of_int lookup_window));
        ("update_window", Num (float_of_int update_window));
        ("store_window", Num (float_of_int store_window));
        ("async_lookup_window", Num (float_of_int async_lookup_window)) ],
    rate_rows
      ((("engine", "events_per_sec", "", batch * batches, engine_window)
       :: List.map lookups configs)
      @ List.map updates configs
      @ List.map snd stores)
    @ List.map lookup_msgs configs
    @ List.map update_msgs configs
    @ List.map fst stores
    @ async_lookups )

(* ------------------------------------------------------------------ *)
(* Part 3: instrumentation overhead -> BENCH_core.json                 *)

(* What always-on tracing costs, measured where experiments actually
   send messages: engine-routed round trips ([Net.call_async] on an
   {!Plookup_sim.Engine} attached as the network's clock), the path
   behind [Async_client] and the latency, loss and day experiments.
   Configurations:

   - bare:     a Net with neither plane accounting nor a trace attached
               (the per-message counters themselves can't be opted out —
               they are the paper's cost model);
   - disabled: planes + trace attached but tracing off — the production
               default, whose overhead must stay in the noise;
   - traced:   tracing on, every span into the bounded ring.

   The overhead rows are time ratios, tracing on over its reference
   (the bare net for async calls, tracing off for service updates),
   bounded below 1.10 in the committed file and 1.20 in a fresh run:
   shared CI runners add several points of scheduler and page-placement
   noise to a ratio whose true excess is a few percent.  The raw
   synchronous transport is also timed ([Net.send] directly, no
   engine): at ~17ns per delivered message it is an empty-function-call
   baseline that no pair of retained spans can undercut by 10%, so only
   its rates are gated.  The off/on rows share one Net (tracing toggled
   between windows) so they also share its heap layout.

   Run this under `--profile release`.  Dune's dev profile compiles
   with -opaque, which strips cmx approximations and turns every
   cross-module [@inline always] — the emit fast paths, [Engine.now] —
   into an out-of-line call with boxed float arguments; the measured
   overhead roughly doubles.  The committed baseline and the CI gate
   both use the release profile. *)
let bench_obs () =
  let n = 10 in
  let async_window = 10_000 and sync_window = 100_000 and service_window = 1000 in
  let instrumented () =
    let net = Net.create ~n () in
    Net.set_planes net ~names:[| "data" |] ~classify:(fun _ -> 0);
    let tr = Plookup_obs.Trace.create ~capacity:256 () in
    let pm = Plookup_obs.Trace.intern_message tr ~plane:"data" ~msg:"msg" in
    Net.set_trace net tr ~coder:(fun _ -> pm);
    (net, tr)
  in
  (* Engine-routed round trips: call in bursts, drain, repeat. *)
  let latency ~src:_ ~dst:_ = 1e-6 in
  let async_drive net engine () =
    let burst = 1000 in
    let called = ref 0 in
    while !called < async_window do
      let b = min burst (async_window - !called) in
      for i = 1 to b do
        Net.call_async net engine ~latency ~src:Net.Client ~dst:(i mod n) i ignore
      done;
      ignore (Plookup_sim.Engine.run engine);
      called := !called + b
    done
  in
  let with_engine net =
    Net.set_handler net (fun _dst _src msg -> msg);
    let engine = Plookup_sim.Engine.create () in
    Net.attach_engine net engine;
    engine
  in
  let entries =
    (* Besides CPU frequency drift (handled by the interleaved rounds),
       per-instance heap-layout luck needs separating from the signal:
       [reps] independent instances of every configuration, each row
       keeping its best across instances, so every row converges to its
       true fastest.  One instrumented net per rep serves the off and
       on rows, so they differ only in tracing, never in allocation
       luck. *)
    let reps = 4 in
    let acc = ref [] in
    for _ = 1 to reps do
      let bare = Net.create ~n () in
      let bare_drive = async_drive bare (with_engine bare) in
      acc := (0, bare_drive) :: !acc;
      let net, tr = instrumented () in
      let drive = async_drive net (with_engine net) in
      let traced on () =
        Plookup_obs.Trace.set_enabled tr on;
        drive ()
      in
      acc := (2, traced true) :: (1, traced false) :: !acc
    done;
    Array.of_list (List.rev !acc)
  in
  (* Raw synchronous transport, bare vs traced. *)
  let sync_send net =
    Net.set_handler net (fun _dst _src msg -> msg);
    ( sync_window,
      fun () ->
        for i = 1 to sync_window do
          ignore (Net.send net ~src:Net.Client ~dst:(i mod n) i)
        done )
  in
  let traced_sync =
    let inst, tr = instrumented () in
    Plookup_obs.Trace.set_enabled tr true;
    inst
  in
  (* Service-level: the round-robin update workload on one service,
     tracing toggled between interleaved windows.  An add/delete pair
     leaves the service as it found it, so repeated windows time the
     same workload. *)
  let h = 100 in
  let obs = Plookup_obs.Obs.create ~trace_capacity:256 () in
  let service = Service.create ~seed:3 ~obs ~n (Service.round_robin 2) in
  Service.place service (Entry.Gen.batch (Entry.Gen.create ()) h);
  let i = ref 1_000_000 in
  let updates on =
    ( service_window,
      fun () ->
        Plookup_obs.Trace.set_enabled obs.Plookup_obs.Obs.trace on;
        for _ = 1 to service_window do
          incr i;
          Service.add service (Entry.v !i);
          Service.delete service (Entry.v !i)
        done )
  in
  (* Every case of this part shares one interleaved timing, so each
     row's windows spread over the whole part. *)
  let m = Array.length entries in
  let rates =
    best_rates
      (Array.concat
         [ Array.map (fun (_, drive) -> (async_window, drive)) entries;
           [| sync_send (Net.create ~n ()); sync_send traced_sync; updates false;
              updates true |] ])
  in
  let async = Array.make 3 0. in
  Array.iteri (fun i (row, _) -> async.(row) <- Float.max async.(row) rates.(i)) entries;
  let sync = Array.sub rates m 2 and svc = Array.sub rates (m + 2) 2 in
  Printf.printf "(sync sends: tracing adds %.1f ns per message)\n"
    (((1. /. sync.(1)) -. (1. /. sync.(0))) *. 1e9);
  let rate = row ~unit:"1/s" "trace" in
  let overhead key v =
    row ~digits:4 ~better:Lower ~limit:1.10 ~fresh_limit:1.20 ~unit:"ratio" "trace" "overhead" key
      v
  in
  ( Json.
      [ ("async_window", Num (float_of_int async_window));
        ("sync_window", Num (float_of_int sync_window));
        ("service_window", Num (float_of_int service_window)) ],
    [ rate "async_calls_per_sec" "bare" async.(0);
      rate "async_calls_per_sec" "tracing_off" async.(1);
      rate "async_calls_per_sec" "tracing_on" async.(2);
      rate "sync_sends_per_sec" "bare" sync.(0);
      rate "sync_sends_per_sec" "tracing_on" sync.(1);
      rate "service_updates_per_sec" "tracing_off" svc.(0);
      rate "service_updates_per_sec" "tracing_on" svc.(1);
      overhead "async_calls" (async.(0) /. async.(2));
      overhead "service_updates" (svc.(0) /. svc.(1)) ] )

(* ------------------------------------------------------------------ *)
(* Part 4: cluster-scale benchmark -> BENCH_scale.json                 *)

(* The paper simulates n=10; this sweep proves the codebase holds up at
   n=10k.  For each consistent-hashing strategy at each fleet size it
   measures placement throughput (entries placed per second through the
   full message path), steady-state lookup throughput at the paper's
   t=35 working point, live heap words after placement, and the storage
   load skew (peak/mean entry count over servers) the strategy's hash
   geometry produces, so an O(n) scan creeping back into a hot path
   shows up as a throughput regression at the larger sizes.
   RandomServer-2 adds its placement throughput and live heap words at
   each size (a broadcast batch from which every server draws its own
   subset), RoundRobin-2 its live heap words at n = 10k, and the two
   broadcast strategies add update throughput and allocation per
   delivered copy at n = 10k. *)
let bench_scale () =
  let sizes = [ 10; 1000; 10_000 ] and t = 35 and lookup_window = 200 in
  let cfg s =
    match Service.config_of_string s with Ok c -> c | Error e -> failwith e
  in
  let configs = [ cfg "hash-2"; cfg "chord-2"; cfg "dxhash-2"; cfg "multiprobe-2x2" ] in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  (* Every service is built (and its heap footprint taken) first, so
     all rates share one interleaved timing spread over the whole
     sweep. *)
  let setup n config =
    let h = max 100 n in
    let words0 = live_words () in
    let service = Service.create ~seed:7 ~n config in
    let entries = Entry.Gen.batch (Entry.Gen.create ()) h in
    Service.place service entries;
    let words = live_words () - words0 in
    (Printf.sprintf "%s@n=%d" (Service.config_name config) n, n, service, entries, words)
  in
  let setups = List.concat_map (fun n -> List.map (setup n) configs) sizes in
  (* RandomServer-2 at every size, built after the sweep so the sweep's
     heap rows stay as they were: only its placement is timed, each
     server drawing its own 2-subset of the broadcast batch. *)
  let random_servers = List.map (fun n -> setup n (cfg "randomserver-2")) sizes in
  (* RoundRobin-2 at n = 10k, whose updates are timed below: only its
     heap is read here, so every strategy the n = 10k rows run has a
     footprint row. *)
  let round_robin = setup 10_000 (cfg "roundrobin-2") in
  let live_words_row (key, _, _, _, words) =
    row ~better:Lower ~unit:"words" "cluster" "live_words" key (float_of_int words)
  in
  (* Re-placing the same batch repeats the identical message sequence
     (stores replace in place), so the repetitions measure steady-state
     placement throughput. *)
  let placement (key, _, service, entries, _) =
    let h = List.length entries in
    let places = max 1 (10_000 / h) in
    ( "service", "placements_per_sec", key, places * h,
      fun () ->
        for _ = 1 to places do
          Service.place service entries
        done )
  in
  let rate_cases ((key, _, service, _, _) as setup) =
    [ placement setup;
      ( "service", "lookups_per_sec", key, lookup_window,
        fun () ->
          for _ = 1 to lookup_window do
            ignore (Service.partial_lookup service t)
          done ) ]
  in
  let footprint ((key, n, service, _, _) as setup) =
    let cluster = Service.cluster service in
    let load =
      Metrics.Load.summarize
        (Array.init n (fun i -> Server_store.cardinal (Cluster.store cluster i)))
    in
    let skew = row ~digits:4 ~better:Lower ~unit:"ratio" "cluster" in
    [ live_words_row setup;
      skew "peak_to_average" key load.Metrics.Load.peak_to_average;
      skew "cov" key load.Metrics.Load.cov ]
  in
  (* Broadcast updates at n = 10k.  RandomServer-2 and RoundRobin-2
     deliver a delete and an add to every server (the paper charges a
     broadcast n messages), so these rows time the broadcast copy.  An
     update deletes a placed entry and adds it back, cycling through the
     placed entries.  [words_per_delivery] is the minor words of a fixed
     batch of [update_batch] updates, run untimed on the freshly placed
     service, over the messages they delivered: exact for a given
     binary, so it moves when a copy or the update's own bookkeeping
     (RoundRobin's coordinator ledger) allocates differently. *)
  let update_n = 10_000 and update_batch = 20 and update_window = 10 in
  let broadcast_updates config =
    let service = Service.create ~seed:7 ~n:update_n config in
    let entries = Array.of_list (Entry.Gen.batch (Entry.Gen.create ()) update_n) in
    Service.place service (Array.to_list entries);
    let next = ref 0 in
    let update () =
      let e = entries.(!next mod update_n) in
      incr next;
      Service.delete service e;
      Service.add service e
    in
    let key = Printf.sprintf "%s@n=%d" (Service.config_name config) update_n in
    let net = Cluster.net (Service.cluster service) in
    Net.reset_counters net;
    let words0 = Gc.minor_words () in
    for _ = 1 to update_batch do
      update ()
    done;
    let words = Gc.minor_words () -. words0 in
    ( row ~digits:4 ~better:Lower ~unit:"words" "service" "words_per_delivery" key
        (words /. float_of_int (Net.messages_received net)),
      ( "service", "updates_per_sec", key, update_window,
        fun () ->
          for _ = 1 to update_window do
            update ()
          done ) )
  in
  let broadcasts = List.map broadcast_updates [ cfg "randomserver-2"; cfg "roundrobin-2" ] in
  let rates =
    rate_rows
      (List.concat_map rate_cases setups
      @ List.map placement random_servers
      @ List.map snd broadcasts)
  in
  ( Json.
      [ ("seed", Num 7.); ("t", Num (float_of_int t));
        ("sizes", Arr (List.map (fun n -> Num (float_of_int n)) sizes));
        ("lookup_window", Num (float_of_int lookup_window));
        ("update_batch", Num (float_of_int update_batch));
        ("update_window", Num (float_of_int update_window)) ],
    rates
    @ List.concat_map footprint setups
    @ List.map live_words_row (random_servers @ [ round_robin ])
    @ List.map fst broadcasts )

(* ------------------------------------------------------------------ *)
(* Part 5: production-day chaos benchmark -> BENCH_day.json            *)

(* The day experiment is both a behavioural artifact (crowd-window tail
   latencies, deterministic at a fixed seed and scale) and a throughput
   workload (a full simulated day across every strategy, naive and
   tuned).  The tails are lower-is-better rows, so a regression in
   shedding, hedging, or the breaker shows up as a fatter tail; the
   runs-per-second row gates the simulator's wall-clock cost.  The
   engine events each tuned cell fires per lookup are deterministic
   too: a client that schedules more timers than it needs moves them. *)
let bench_day () =
  let scale = 0.25 in
  let ctx = E.Ctx.v ~seed:42 ~scale () in
  let table = E.Exp_day.run ctx in
  let runs = (best_rates [| (1, fun () -> ignore (E.Exp_day.run ctx)) |]).(0) in
  let keys = List.map2 (fun s c -> s ^ "/" ^ c) (texts table "strategy") (texts table "client") in
  let tails metric col =
    List.map2 (row ~digits:2 ~better:Lower ~unit:"ms" "day" metric) keys (numbers table col)
  in
  let events =
    List.map
      (fun (strategy, v) ->
        row ~digits:2 ~better:Lower ~unit:"count" "client" "events_per_lookup" strategy v)
      (E.Exp_day.events_per_lookup ctx)
  in
  ( Json.[ ("seed", Num 42.); ("scale", Num scale) ],
    (row ~digits:2 ~unit:"1/s" "day" "runs_per_sec" (Printf.sprintf "scale=%.2f" scale) runs
    :: tails "p99_ms" "crowd p99 ms")
    @ tails "p999_ms" "crowd p999 ms"
    @ events )

(* ------------------------------------------------------------------ *)
(* Part 6: client-cache benchmark -> BENCH_cache.json                  *)

(* The client-side caching fast path, measured two ways.

   Behaviourally: the production day re-run with the tuned+cache cell
   (deterministic at seed 42, scale 0.25, like Part 5), per strategy —
   hit rate, data-plane messages per lookup against the tuned client,
   crowd-window p99 and stale reads — plus TTL and capacity sweeps of
   the freshness-vs-traffic trade-off and one hotspot-adversarial cell
   (focus 0.9 of all lookups on the worst-placed key), the cache's
   hardest case.  Every hit rate of the per-strategy cell must also
   clear 40% in both files: the claim that the cache absorbs the flash
   crowd is an absolute one.

   Mechanically: raw Client_cache operation throughput — the hit fast
   path at several capacities and a churn loop (expired miss + insert +
   LRU eviction). *)
let bench_cache () =
  let scale = 0.25 in
  let d = E.Ctx.default_cache in
  let cap0 = d.E.Ctx.cache_cap and ttl0 = d.E.Ctx.cache_ttl and swr = d.E.Ctx.swr in
  let day ?(cap = cap0) ?(ttl = ttl0) ?(hotspot = 0.) () =
    let cache = { E.Ctx.cache_cap = cap; cache_ttl = ttl; swr; hotspot } in
    E.Exp_day.run (E.Ctx.v ~seed:42 ~scale ~cache ())
  in
  let base = day () in
  let per_strategy ?digits ?better ?limit ?fresh_limit ~unit metric client col =
    List.map2
      (row ?digits ?better ?limit ?fresh_limit ~unit "cache" metric)
      (where "tuned+cache" base texts "strategy")
      (where client base numbers col)
  in
  (* Freshness-vs-traffic trade-off: stale reads bought per message
     saved, as the TTL stretches past the update period. *)
  let sweep layer key table =
    let cached = where "tuned+cache" table numbers in
    [ row ~digits:2 ~unit:"%" layer "hit_rate" key (mean (cached "hit %"));
      row ~digits:3 ~better:Lower ~unit:"msgs" layer "msgs_per_lookup" key
        (mean (cached "msgs/lookup"));
      row ~better:Lower ~unit:"reads" layer "stale" key
        (List.fold_left ( +. ) 0. (cached "stale")) ]
  in
  let hotspot = day ~hotspot:0.9 () in
  let hot ?better ~unit metric v =
    row ~digits:2 ?better ~unit "cache.hotspot" metric "focus=0.9" v
  in
  (* Raw Client_cache throughput, 1000 operations per batch. *)
  let batches = 20 in
  let result = Lookup_result.empty ~target:35 in
  let waiter _ ~now:_ = () in
  let hit cap =
    let c = Client_cache.create ~ttl:1e12 ~capacity:cap () in
    for k = 0 to cap - 1 do
      match Client_cache.lookup c ~key:k ~now:0. ~waiter with
      | Client_cache.Lead -> Client_cache.complete c ~key:k ~now:0. ~ok:true ~attempts:1 result
      | _ -> ()
    done;
    let i = ref 0 in
    ( "client_cache", "cached_lookups_per_sec", Printf.sprintf "hit@cap=%d" cap, 1000 * batches,
      fun () ->
        for _ = 1 to batches do
          for j = 0 to 999 do
            ignore (Client_cache.lookup c ~key:(((!i * 1000) + j) mod cap) ~now:1. ~waiter)
          done;
          incr i
        done )
  in
  let churn cap =
    let c = Client_cache.create ~ttl:1. ~capacity:cap () in
    let now = ref 0. in
    ( "client_cache", "cached_lookups_per_sec", Printf.sprintf "churn@cap=%d" cap, 1000 * batches,
      fun () ->
        for _ = 1 to batches do
          for j = 0 to 999 do
            now := !now +. 2.;
            let key = j mod (2 * cap) in
            match Client_cache.lookup c ~key ~now:!now ~waiter with
            | Client_cache.Lead ->
              Client_cache.complete c ~key ~now:!now ~ok:true ~attempts:1 result
            | _ -> ()
          done
        done )
  in
  ( Json.
      [ ("seed", Num 42.); ("scale", Num scale); ("cap", Num (float_of_int cap0));
        ("ttl", Num ttl0); ("swr", Num swr); ("hotspot_focus", Num 0.9) ],
    per_strategy ~digits:2 ~limit:40. ~fresh_limit:40. ~unit:"%" "hit_rate" "tuned+cache" "hit %"
    @ per_strategy ~digits:3 ~better:Lower ~unit:"msgs" "msgs_per_lookup" "tuned+cache"
        "msgs/lookup"
    @ per_strategy ~digits:3 ~better:Lower ~unit:"msgs" "msgs_per_lookup_tuned" "tuned"
        "msgs/lookup"
    @ per_strategy ~digits:2 ~better:Lower ~unit:"ms" "p99_cached_ms" "tuned+cache"
        "crowd p99 ms"
    @ per_strategy ~digits:2 ~better:Lower ~unit:"ms" "p99_tuned_ms" "tuned" "crowd p99 ms"
    @ per_strategy ~better:Lower ~unit:"reads" "stale" "tuned+cache" "stale"
    @ List.concat_map
        (fun ttl -> sweep "cache.ttl_sweep" (Printf.sprintf "ttl=%g" ttl) (day ~ttl ()))
        [ 5.; 10.; 25.; 50. ]
    (* The day's Zipf working set inside one TTL is small, so the LRU
       only binds at tiny capacities — sweep down to where eviction
       visibly costs hits. *)
    @ List.concat_map
        (fun cap -> sweep "cache.capacity_sweep" (Printf.sprintf "cap=%d" cap) (day ~cap ()))
        [ 2; 8; 128 ]
    @ [ hot ~unit:"%" "hit_rate" (mean (where "tuned+cache" hotspot numbers "hit %"));
        hot ~better:Lower ~unit:"ms" "p99_tuned_ms"
          (mean (where "tuned" hotspot numbers "crowd p99 ms"));
        hot ~better:Lower ~unit:"ms" "p99_cached_ms"
          (mean (where "tuned+cache" hotspot numbers "crowd p99 ms")) ]
    @ rate_rows (List.map hit [ 8; 128; 1024 ] @ [ churn 128 ]) )

(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv > 1 then (
    prerr_endline "usage: main.exe (takes no arguments; rewrites every BENCH_*.json)";
    exit 2);
  let t0 = Unix.gettimeofday () in
  let part title =
    print_endline ("=== " ^ title ^ " ===");
    print_newline ()
  in
  part "Part 1: churn/repair benchmark (BENCH_repair.json)";
  emit "BENCH_repair.json" ~benchmark:"churn_repair" (bench_repair ());
  print_newline ();
  part "Parts 2-3: core throughput and instrumentation overhead (BENCH_core.json)";
  (let core_params, core_rows = bench_core () in
   let obs_params, obs_rows = bench_obs () in
   emit "BENCH_core.json" ~benchmark:"core_throughput"
     (core_params @ obs_params, core_rows @ obs_rows));
  print_newline ();
  part "Part 4: cluster-scale benchmark (BENCH_scale.json)";
  emit "BENCH_scale.json" ~benchmark:"cluster_scale" (bench_scale ());
  print_newline ();
  part "Part 5: production-day chaos benchmark (BENCH_day.json)";
  emit "BENCH_day.json" ~benchmark:"production_day" (bench_day ());
  print_newline ();
  part "Part 6: client-cache benchmark (BENCH_cache.json)";
  emit "BENCH_cache.json" ~benchmark:"client_cache" (bench_cache ());
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
