(* The end-to-end benchmark driver: one process, one thread, one
   workload per run.  It builds its inputs from --seed, drives the
   library only through public calls (Service, Cluster, Net.wrap_handler
   and the Net counters, Engine, Async_client, Client_cache, Repair,
   Churn, Entry.Gen, Rng/Dist, Plookup_obs.Metrics, Registry and
   Ctx.v), checks every output, and prints each metric by name with its
   unit.  The last line of stdout is one JSON object: the end-to-end
   metrics of an untraced run, or the per-layer metrics of a traced
   (--trace 1) run.  README.md explains the workloads and metrics. *)

open Plookup
open Plookup_store
open Plookup_util
module Net = Plookup_net.Net
module Engine = Plookup_sim.Engine
module Churn = Plookup_workload.Churn
module Metrics = Plookup_obs.Metrics
module Ctx = Plookup_experiments.Ctx
module Registry = Plookup_experiments.Registry
module T = Tracer

let now_ns = T.now_ns
let secs ns = float_of_int ns *. 1e-9
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* {1 Checks} *)

let attempted = ref 0
let failed = ref 0
let violations = ref []
let max_printed = 20

let violation fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if !failed <= max_printed then begin
        violations := msg :: !violations;
        prerr_endline ("check failed: " ^ msg)
      end)
    fmt

(* {1 Metrics} *)

let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("call_p50_us", "us");
    ("call_p99_us", "us");
    ("heap_peak_mb", "MB") ]

let kinds =
  [ "FullReplication"; "Fixed"; "RandomServer"; "RoundRobin"; "Hash"; "Chord"; "DxHash"; "MultiProbe" ]

let pops = [ "tuned"; "cached" ]

let repro_ids =
  [ "table1"; "fig4"; "fig6"; "fig7"; "fig9"; "fig12"; "fig13"; "fig14"; "table2"; "hotspot";
    "churn"; "latency"; "loss"; "day" ]

let per_layer =
  [ ("probe.client_self_us", "us");
    ("probe.contacts_per_lookup", "count");
    ("probe.client_self_ns_per_contact", "ns") ]
  @ List.map (fun k -> ("service.lookup_us." ^ k, "us")) kinds
  @ List.map (fun k -> ("service.update_us." ^ k, "us")) kinds
  @ [ ("server.handler_ns_per_msg", "ns");
      ("server.handler_share_pct", "%");
      ("strategy.update_client_self_us", "us");
      ("net.msgs_per_lookup", "count");
      ("net.msgs_per_update", "count");
      ("net.shed_pct", "%");
      ("sim.events", "count");
      ("sim.events_per_lookup", "count");
      ("sim.host_ns_per_event", "ns");
      ("sim.residual_share_pct", "%");
      ("client.launch_ns", "ns") ]
  @ List.concat_map
      (fun p ->
        [ ("client.attempts_per_lookup." ^ p, "count");
          ("client.timeouts_per_lookup." ^ p, "count");
          ("client.hedges_per_lookup." ^ p, "count");
          ("client.busies_per_lookup." ^ p, "count");
          ("client.gave_up_pct." ^ p, "%") ])
      pops
  @ [ ("cache.hit_ns", "ns");
      ("cache.hit_pct", "%");
      ("cache.coalesced_pct", "%");
      ("cache.evictions", "count");
      ("repair.msgs", "count");
      ("repair.daemon_ticks", "count");
      ("repair.recover_us", "us");
      ("gc.minor_words_per_op", "words");
      ("gc.major_words_per_op", "words");
      ("gc.major_collections", "count") ]
  @ List.map (fun id -> ("experiments." ^ id ^ ".wall_s", "s")) repro_ids
  @ List.concat_map
      (fun p ->
        [ ("sim.success_pct." ^ p, "%");
          ("sim.crowd_p99_ms." ^ p, "ms");
          ("sim.msgs_per_lookup." ^ p, "count") ])
      pops
  @ [ ("sim.stale.cached", "count"); ("trace.overhead_pct", "%") ]

(* Values by metric name.  A per-layer metric whose layer the workload
   never calls through the benchmark stays 0 (README.md has the
   workload x metric matrix). *)
let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name (if Float.is_finite v then v else 0.)
let get name = Option.value (Hashtbl.find_opt values name) ~default:0.

(* The end-to-end values before host-speed normalization, for the
   result file. *)
let unnormalized = ref Json.Null

(* A growable float buffer for samples. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
  let median b = Stat.median (to_array b)
end

(* Samples behind the end-to-end metrics, each normalized to
   reference-host time (see speed.ml) and also kept unnormalized. *)
let setup = Buf.create ()
let raw_setup = Buf.create ()
let rates = Buf.create ()
let raw_rates = Buf.create ()
let calls = Buf.create ()
let raw_calls = Buf.create ()
let slowdowns = Buf.create ()

(* Slowdowns of the traced chunks: per-layer times are divided by their
   median. *)
let traced_slowdowns = Buf.create ()
let layer_time name v =
  let slowdown = if traced_slowdowns.Buf.n = 0 then 1. else Buf.median traced_slowdowns in
  set name (v /. slowdown)

let push_setup ~raw ~slowdown =
  Buf.push raw_setup raw;
  Buf.push setup (raw /. slowdown)

let push_call ~raw_us ~slowdown =
  Buf.push raw_calls raw_us;
  Buf.push calls (raw_us /. slowdown)

(* One measured round: ops done, and their time unnormalized and
   normalized. *)
let push_round ~ops ~raw_s ~norm_s =
  Buf.push raw_rates (ratio ops raw_s);
  Buf.push rates (ratio ops norm_s)

let report_e2e ~heap =
  let pct b q = Stat.percentile_sorted (Stat.sorted (Buf.to_array b)) q in
  set "setup_s" (Buf.median setup);
  set "ops_per_s" (Buf.median rates);
  set "call_p50_us" (pct calls 50.);
  set "call_p99_us" (pct calls 99.);
  set "heap_peak_mb" heap;
  unnormalized :=
    Json.Obj
      [ ("setup_s", Json.Num (Buf.median raw_setup));
        ("ops_per_s", Json.Num (Buf.median raw_rates));
        ("call_p50_us", Json.Num (pct raw_calls 50.));
        ("call_p99_us", Json.Num (pct raw_calls 99.));
        ("host_slowdown_median", Json.Num (Buf.median slowdowns)) ]

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* GC work over measured sections, per op. *)
let minor_words = ref 0.
let major_words = ref 0.
let major_collections = ref 0

let gc_measured f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  minor_words := !minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  major_words := !major_words +. (s1.Gc.major_words -. s0.Gc.major_words);
  major_collections := !major_collections + (s1.Gc.major_collections - s0.Gc.major_collections);
  r

let report_gc ~ops =
  set "gc.minor_words_per_op" (!minor_words /. float_of_int (max 1 ops));
  set "gc.major_words_per_op" (!major_words /. float_of_int (max 1 ops));
  set "gc.major_collections" (float_of_int !major_collections)

(* Tracing alternates by round: odd rounds are traced, even ones
   untraced, so the traced run also measures its own overhead.  Round 0
   is warm-up and never measured. *)
let traced_round ~trace r = trace && r mod 2 = 1

(* Slowdown of the traced rounds against the untraced ones, from
   normalized per-op (or per-pass) times. *)
let overhead_pct ~untraced ~traced =
  if Array.length untraced = 0 || Array.length traced = 0 then 0.
  else 100. *. ((Stat.median traced /. Stat.median untraced) -. 1.)

(* The same from the normalized rates of the traced rounds and of the
   untraced measured rounds ([rates]). *)
let rate_overhead_pct traced_rates =
  let per_op b = Array.map (fun r -> 1. /. r) (Buf.to_array b) in
  overhead_pct ~untraced:(per_op rates) ~traced:(per_op traced_rates)

let wrap_handlers cluster lbl =
  Net.wrap_handler (Cluster.net cluster) (fun inner dst src msg ->
      if !T.on then begin
        T.enter T.handler lbl;
        let reply = inner dst src msg in
        ignore (T.exit ());
        reply
      end
      else inner dst src msg)

let config_of s = match Service.config_of_string s with Ok c -> c | Error e -> failwith e

let kind_index config =
  let rec go i = function
    | [] -> -1
    | k :: rest -> if k = Service.kind config then i else go (i + 1) rest
  in
  go 0 kinds

(* {1 Closed-loop workloads: paper-n10 and scale-n10k}

   One caller drives every strategy through Service.partial_lookup and
   Service.delete+add.  All strategies are placed first; then each round
   runs the same [ops_per_round] ops on every strategy in turn, so the
   strategies interleave and a slow host phase hits all of them.  A
   chunk is one strategy's share of one round. *)

type sync_spec = {
  n : int;
  h : int;
  t : int;
  configs : string list;
  lookup_share : float;
  ops_per_round : int;
  rounds : int;  (** including the warm-up round *)
  setups : int;  (** set-up repetitions; setup_s is their median *)
}

type inputs = {
  entries : Entry.t array;  (** by id; ids are dense from 0 *)
  initial : Entry.t list;
  victim : int array;  (** per op: -1 for a lookup, else the id the update deletes *)
  fresh : int array;  (** per update op: the id it adds *)
  born : int array;  (** per id: the op that added it, -1 for the initial batch *)
  died : int array;  (** per id: the op that deleted it, max_int while live *)
}

let gen_inputs ~seed ~h ~ops ~lookup_share =
  let rng = Rng.create seed in
  let gen = Entry.Gen.create () in
  let initial = Entry.Gen.batch gen h in
  let live = Array.of_list initial in
  let created = ref (List.rev initial) in
  let victim = Array.make ops (-1) in
  let fresh = Array.make ops (-1) in
  for i = 0 to ops - 1 do
    if Rng.unit_float rng >= lookup_share then begin
      let k = Rng.int rng h in
      let e = Entry.Gen.fresh gen in
      victim.(i) <- Entry.id live.(k);
      fresh.(i) <- Entry.id e;
      live.(k) <- e;
      created := e :: !created
    end
  done;
  let entries = Array.of_list (List.rev !created) in
  Array.iteri (fun i e -> if Entry.id e <> i then failwith "Entry.Gen ids are not dense") entries;
  let born = Array.make (Array.length entries) (-1) in
  let died = Array.make (Array.length entries) max_int in
  for i = 0 to ops - 1 do
    if victim.(i) >= 0 then begin
      died.(victim.(i)) <- i;
      born.(fresh.(i)) <- i
    end
  done;
  { entries; initial; victim; fresh; born; died }

(* Every lookup must return exactly [t] distinct entries, each live when
   the call began (op [i]); [stamp] marks the ids this lookup returned.
   Returns how many entries break the rule. *)
let rec check_entries inputs ~stamp ~mark ~i ~bad = function
  | [] -> bad
  | e :: rest ->
    let id = Entry.id e in
    let bad =
      if id < 0 || id >= Array.length inputs.born || stamp.(id) = mark then bad + 1
      else begin
        stamp.(id) <- mark;
        if inputs.born.(id) < i && inputs.died.(id) > i then bad else bad + 1
      end
    in
    check_entries inputs ~stamp ~mark ~i ~bad rest

let run_sync spec ~seed ~trace =
  let ops = spec.ops_per_round * spec.rounds in
  let build () =
    let inputs = gen_inputs ~seed ~h:spec.h ~ops ~lookup_share:spec.lookup_share in
    let services =
      List.map
        (fun name ->
          let s = Service.create ~seed:(Hashtbl.hash (seed, name)) ~n:spec.n (config_of name) in
          Service.place s inputs.initial;
          s)
        spec.configs
    in
    (inputs, Array.of_list services)
  in
  let built = ref None in
  for _ = 1 to spec.setups do
    built := None;
    Gc.full_major ();
    let cal = Speed.start () in
    let t0 = now_ns () in
    built := Some (build ());
    let raw = secs (now_ns () - t0) in
    push_setup ~raw ~slowdown:(Speed.next cal)
  done;
  let inputs, services = Option.get !built in
  let nsvc = Array.length services in
  let labels = Array.map (fun s -> T.label (Service.name s)) services in
  let kind_of = Array.map (fun s -> kind_index (Service.config s)) services in
  if trace then Array.iteri (fun i s -> wrap_handlers (Service.cluster s) labels.(i)) services;
  let k = spec.ops_per_round in
  (* Per-call durations live outside the OCaml heap, so heap_peak_mb
     sees the library rather than the benchmark's bookkeeping. *)
  let dur = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (spec.rounds * nsvc * k) in
  Bigarray.Array1.fill dur (-1);
  let slowdown = Array.make (spec.rounds * nsvc) 1. in
  let stamp = Array.make (Array.length inputs.entries) 0 in
  let mark = ref 0 in
  let contacts = ref 0 and lookups = ref 0 and traced_contacts = ref 0 in
  let traced_rates = Buf.create () in
  Gc.full_major ();
  let cal = Speed.start () in
  for r = 0 to spec.rounds - 1 do
    let traced = traced_round ~trace r in
    T.on := traced;
    let round_ok = ref 0 and raw_s = ref 0. and norm_s = ref 0. in
    for si = 0 to nsvc - 1 do
      let svc = services.(si) and lbl = labels.(si) in
      let chunk_ns = ref 0 in
      let run_chunk () =
        for j = 0 to k - 1 do
          let i = (r * k) + j in
          let v = inputs.victim.(i) in
          incr attempted;
          let d0 = !T.depth in
          match
            if v < 0 then begin
              let t0 = now_ns () in
              if traced then T.enter T.lookup lbl;
              let res = Service.partial_lookup svc spec.t in
              if traced then ignore (T.exit ());
              let d = now_ns () - t0 in
              incr mark;
              let entries = res.Lookup_result.entries in
              let bad = check_entries inputs ~stamp ~mark:!mark ~i ~bad:0 entries in
              let got = List.length entries in
              if bad > 0 || got <> spec.t then begin
                violation "%s op %d: lookup returned %d entries (%d repeated or not live), want %d"
                  (Service.name svc) i got bad spec.t;
                -1
              end
              else begin
                if r > 0 then begin
                  incr lookups;
                  contacts := !contacts + res.Lookup_result.servers_contacted;
                  if traced then
                    traced_contacts := !traced_contacts + res.Lookup_result.servers_contacted
                end;
                d
              end
            end
            else begin
              let t0 = now_ns () in
              if traced then T.enter T.update lbl;
              Service.delete svc inputs.entries.(v);
              Service.add svc inputs.entries.(inputs.fresh.(i));
              if traced then ignore (T.exit ());
              now_ns () - t0
            end
          with
          | d when d >= 0 ->
            dur.{(((r * nsvc) + si) * k) + j} <- d;
            chunk_ns := !chunk_ns + d;
            incr round_ok
          | _ -> ()
          | exception e ->
            T.unwind_to d0;
            violation "%s op %d raised %s" (Service.name svc) i (Printexc.to_string e)
        done
      in
      if r > 0 then gc_measured run_chunk else run_chunk ();
      let f = Speed.next cal in
      slowdown.((r * nsvc) + si) <- f;
      raw_s := !raw_s +. secs !chunk_ns;
      norm_s := !norm_s +. (secs !chunk_ns /. f);
      if r > 0 then Buf.push (if traced then traced_slowdowns else slowdowns) f
    done;
    if traced then Buf.push traced_rates (ratio (float_of_int !round_ok) !norm_s)
    else if r > 0 then push_round ~ops:(float_of_int !round_ok) ~raw_s:!raw_s ~norm_s:!norm_s
  done;
  T.on := false;
  let heap = heap_peak_mb () in
  (* Deleted entries must be gone from every up server. *)
  Array.iter
    (fun svc ->
      incr attempted;
      let stale =
        Entry.Set.filter
          (fun e ->
            let id = Entry.id e in
            id < 0 || id >= Array.length inputs.died || inputs.died.(id) <> max_int)
          (Cluster.coverage (Service.cluster svc))
      in
      if not (Entry.Set.is_empty stale) then
        violation "%s: coverage holds %d deleted entries after the run" (Service.name svc)
          (Entry.Set.cardinal stale))
    services;
  (* Latencies pool the untraced measured rounds. *)
  let per_kind = Array.init (List.length kinds) (fun _ -> (Buf.create (), Buf.create ())) in
  for r = 1 to spec.rounds - 1 do
    if not (traced_round ~trace r) then
      for si = 0 to nsvc - 1 do
        let f = slowdown.((r * nsvc) + si) in
        for j = 0 to k - 1 do
          let d = dur.{(((r * nsvc) + si) * k) + j} in
          if d >= 0 then begin
            let raw_us = float_of_int d /. 1e3 in
            push_call ~raw_us ~slowdown:f;
            if kind_of.(si) >= 0 then
              Buf.push
                ((if inputs.victim.((r * k) + j) < 0 then fst else snd) per_kind.(kind_of.(si)))
                (raw_us /. f)
          end
        done
      done
  done;
  report_e2e ~heap;
  report_gc ~ops:((spec.rounds - 1) * nsvc * k);
  List.iteri
    (fun ki kind ->
      let lk, up = per_kind.(ki) in
      set ("service.lookup_us." ^ kind) (Buf.median lk);
      set ("service.update_us." ^ kind) (Buf.median up))
    kinds;
  set "probe.contacts_per_lookup" (fratio !contacts !lookups);
  layer_time "probe.client_self_us" (T.mean_self_ns T.lookup /. 1e3);
  layer_time "probe.client_self_ns_per_contact" (fratio T.self_ns.(T.lookup) !traced_contacts);
  layer_time "strategy.update_client_self_us" (T.mean_self_ns T.update /. 1e3);
  layer_time "server.handler_ns_per_msg" (T.mean_self_ns T.handler);
  set "server.handler_share_pct" (100. *. fratio T.self_ns.(T.handler) !T.top_ns);
  set "net.msgs_per_lookup" (fratio T.msgs.(T.lookup) T.count.(T.lookup));
  set "net.msgs_per_update" (fratio T.msgs.(T.update) T.count.(T.update));
  set "trace.overhead_pct" (rate_overhead_pct traced_rates);
  [ ("n", Json.Num (float_of_int spec.n));
    ("h", Json.Num (float_of_int spec.h));
    ("t", Json.Num (float_of_int spec.t));
    ("strategies", Json.Arr (List.map (fun s -> Json.Str s) spec.configs));
    ("lookup_share", Json.Num spec.lookup_share);
    ("ops_per_round_per_strategy", Json.Num (float_of_int k));
    ("rounds", Json.Num (float_of_int spec.rounds));
    ("setups", Json.Num (float_of_int spec.setups)) ]

(* {1 crowd: the production day, rebuilt from public calls}

   Open-loop Poisson arrivals in simulated time with a diurnal swing and
   a 6x flash crowd, Zipf keys with a fixed probe order per key,
   capacity-limited servers answering overload with Busy nacks, two
   gray-failed servers during the crowd, churn, the default repair
   configuration and a delete+add update stream.  Each strategy runs two
   client populations on identical arrivals: the tuned tail-tolerant
   client, and the same client behind a Client_cache.  A chunk is one
   cell: one strategy and population for one day. *)

let crowd_n = 10
let crowd_h = 100
let crowd_t = 35
let crowd_keys = 50
let crowd_alpha = 1.1
let rtt_lo = 5.
let rtt_hi = 50.
let base_rate = 1.0
let mttf = 250.
let mttr = 20.
let update_every = 10.

let crowd_configs =
  [ "full"; "fixed-40"; "randomserver-20"; "roundrobin-2"; "hash-2"; "chord-2"; "dxhash-2";
    "multiprobe-2x2" ]

type tally = {
  mutable lookups : int;
  mutable satisfied : int;
  mutable stale : int;
  mutable attempts : int;
  mutable timeouts : int;
  mutable hedges : int;
  mutable busies : int;
  mutable gave_up : int;
  crowd_ms : Buf.t;
}

let new_tally () =
  { lookups = 0;
    satisfied = 0;
    stale = 0;
    attempts = 0;
    timeouts = 0;
    hedges = 0;
    busies = 0;
    gave_up = 0;
    crowd_ms = Buf.create () }

(* Per-call samples of traced rounds.  [launch_ns] times the
   Async_client.lookup call of the tuned population (every one of its
   lookups goes to the network).  A cache hit is served inside the
   zero-delay engine event the client schedules at launch, so [hit_ns]
   times each engine event in which a lookup completed with no attempt
   at the instant it started. *)
let launch_ns = Buf.create ()
let hit_ns = Buf.create ()
let recover_ns = ref 0
let recovers = ref 0
let cache_hit_fired = ref false

(* Traced rounds step the engine one event at a time to time each
   event; [Engine.run] is the same loop over [Engine.step]. *)
let step_timed engine =
  let rec go fired =
    cache_hit_fired := false;
    let t0 = now_ns () in
    if Engine.step engine then begin
      if !cache_hit_fired then Buf.push hit_ns (float_of_int (now_ns () - t0));
      go (fired + 1)
    end
    else fired
  in
  go 0

type cell = {
  engine : Engine.t;
  service : Service.t;
  ccache : Client_cache.t option;
  fired : int array;  (** callbacks fired per launched lookup *)
  deleted_at : float array;  (** per entry id; infinity while live *)
  updates_us : Buf.t;  (** unnormalized Service.delete+add times *)
  name : string;
}

let crowd_cell ~seed ~config ~cached ~horizon ~trace ~tally =
  let n = crowd_n and h = crowd_h and t = crowd_t in
  let ov = Ctx.default_overload and cc = Ctx.default_cache in
  let name = Service.config_name config in
  let lbl = T.label name in
  let plbl = T.label (name ^ "/" ^ if cached then "cached" else "tuned") in
  let service = Service.create ~seed ~repair:Repair.default_config ~n config in
  let gen = Entry.Gen.create () in
  let initial = Entry.Gen.batch gen h in
  Service.place service initial;
  let cluster = Service.cluster service in
  Cluster.set_capacity cluster ~service_rate:ov.Ctx.service_rate ~queue_limit:ov.Ctx.capacity
    ~nack:true ();
  if trace then wrap_handlers cluster lbl;
  let engine = Engine.create () in
  Option.iter (fun rep -> Repair.attach_engine ~until:horizon rep engine) (Service.repair service);
  Churn.drive engine
    ~apply:(fun ev ->
      let traced = !T.on in
      if traced then T.enter T.churn_apply lbl;
      if ev.Churn.up then Cluster.recover cluster ev.Churn.server
      else Cluster.fail cluster ev.Churn.server;
      if traced then begin
        let d = T.exit () in
        if ev.Churn.up then begin
          recover_ns := !recover_ns + d;
          incr recovers
        end
      end)
    (Churn.generate (Rng.create (seed lxor 0xC0FFEE)) ~n ~mttf ~mttr ~horizon);
  let updates = int_of_float (horizon /. update_every) in
  let deleted_at = Array.make (h + updates + 1) infinity in
  let updates_us = Buf.create () in
  let live = Array.of_list initial in
  let wl_rng = Rng.create (seed lxor 0xBEEF) in
  for k = 1 to updates do
    let time = (float_of_int k *. update_every) +. 0.25 in
    ignore
      (Engine.schedule_at engine ~time (fun _ ->
           if Service.can_update service then begin
             let traced = !T.on in
             if traced then T.enter T.sim_update lbl;
             let slot = Rng.int wl_rng h in
             let victim = live.(slot) in
             let fresh = Entry.Gen.fresh gen in
             let t0 = now_ns () in
             if traced then T.enter T.update lbl;
             Service.delete service victim;
             Service.add service fresh;
             if traced then ignore (T.exit ())
             else Buf.push updates_us (float_of_int (now_ns () - t0) /. 1e3);
             live.(slot) <- fresh;
             deleted_at.(Entry.id victim) <- time;
             if traced then ignore (T.exit ())
           end))
  done;
  let crowd_lo = 0.45 *. horizon and crowd_hi = 0.60 *. horizon in
  let in_crowd tau = tau >= crowd_lo && tau < crowd_hi in
  ignore
    (Engine.schedule_at engine ~time:crowd_lo (fun _ ->
         List.iter (fun s -> Cluster.set_degraded cluster s ~factor:ov.Ctx.degrade) [ 0; 1 ]));
  ignore
    (Engine.schedule_at engine ~time:crowd_hi (fun _ ->
         List.iter (fun s -> Cluster.set_degraded cluster s ~factor:1.0) [ 0; 1 ]));
  let orders =
    Array.init (crowd_keys + 1) (fun r ->
        Array.to_list (Rng.perm (Rng.create (seed + (7919 * (r + 1)))) n))
  in
  let hist = Metrics.histogram (Metrics.create ()) "lookup.latency" in
  let hedge_delay () =
    if Metrics.histogram_count hist < 30 then 2. *. rtt_hi
    else Float.max (rtt_hi /. 2.) (Metrics.histogram_quantile hist ov.Ctx.hedge)
  in
  let breaker = Async_client.Breaker.create ~threshold:ov.Ctx.breaker ~cooldown:100. ~n () in
  let jitter_rng = Rng.create (seed lxor 0x9177) in
  let latency_rng = Rng.create (seed lxor 0x1A7E) in
  let latency () = Dist.uniform_in latency_rng ~lo:(rtt_lo /. 2.) ~hi:(rtt_hi /. 2.) in
  let ccache =
    if cached then
      Some (Client_cache.create ~ttl:cc.Ctx.cache_ttl ~swr:cc.Ctx.swr ~capacity:cc.Ctx.cache_cap ())
    else None
  in
  let key_rng = Rng.create (seed lxor 0x21F) in
  let arr_rng = Rng.create (seed lxor 0xA331) in
  let rate_at tau =
    let diurnal = 1. +. (0.6 *. sin (2. *. Float.pi *. tau /. horizon)) in
    base_rate *. diurnal *. if in_crowd tau then 6. else 1.
  in
  let arrivals = ref [] in
  let tau = ref (Dist.poisson_interarrival arr_rng ~rate:(rate_at 0.)) in
  while !tau < horizon do
    arrivals := (!tau, Dist.zipf_ranks key_rng ~n:crowd_keys ~alpha:crowd_alpha) :: !arrivals;
    tau := !tau +. Dist.poisson_interarrival arr_rng ~rate:(rate_at !tau)
  done;
  let arrivals = Array.of_list (List.rev !arrivals) in
  let fired = Array.make (Array.length arrivals) 0 in
  (* Entries returned: (count, ids never issued, deleted before [started]). *)
  let rec scan ~issued ~started count bogus stale = function
    | [] -> (count, bogus, stale)
    | e :: rest ->
      let id = Entry.id e in
      if id < 0 || id >= issued then scan ~issued ~started (count + 1) (bogus + 1) stale rest
      else
        scan ~issued ~started (count + 1) bogus
          (if deleted_at.(id) <= started then stale + 1 else stale)
          rest
  in
  let record idx o =
    fired.(idx) <- fired.(idx) + 1;
    if fired.(idx) > 1 then violation "%s lookup %d: callback fired %d times" name idx fired.(idx)
    else begin
      let started = o.Async_client.started_at in
      if o.Async_client.attempts = 0 && o.Async_client.completed_at = started then
        cache_hit_fired := true;
      let returned, bogus, stale =
        scan ~issued:(Entry.Gen.next_id gen) ~started 0 0 0
          o.Async_client.result.Lookup_result.entries
      in
      if bogus > 0 then
        violation "%s lookup %d: returned %d entry ids that were never issued" name idx bogus;
      let lat = Async_client.elapsed o in
      Metrics.observe hist lat;
      if in_crowd started then Buf.push tally.crowd_ms lat;
      tally.lookups <- tally.lookups + 1;
      if returned - stale >= t then tally.satisfied <- tally.satisfied + 1;
      tally.stale <- tally.stale + stale;
      tally.attempts <- tally.attempts + o.Async_client.attempts;
      tally.timeouts <- tally.timeouts + o.Async_client.timeouts;
      tally.hedges <- tally.hedges + o.Async_client.hedges;
      tally.busies <- tally.busies + o.Async_client.busies;
      if o.Async_client.gave_up then tally.gave_up <- tally.gave_up + 1
    end
  in
  let timeout = 2. *. rtt_hi in
  Array.iteri
    (fun idx (time, rank) ->
      ignore
        (Engine.schedule_at engine ~time (fun _ ->
             let traced = !T.on in
             if traced then T.enter T.launch plbl;
             Async_client.lookup cluster engine ~latency ~timeout ~retries:2
               ~deadline:ov.Ctx.deadline ~hedge:(hedge_delay ()) ~breaker ~jitter:jitter_rng
               ?cache:(Option.map (fun c -> (c, rank)) ccache)
               ~order:orders.(rank) ~t (record idx);
             if traced then begin
               let d = T.exit () in
               if not cached then Buf.push launch_ns (float_of_int d)
             end)))
    arrivals;
  { engine; service; ccache; fired; deleted_at; updates_us; name }

type crowd_spec = { rounds : int; horizon : float }

let run_crowd spec ~seed ~trace =
  let configs = List.map config_of crowd_configs in
  let master = Rng.create seed in
  let tallies = [| new_tally (); new_tally () |] in
  let update_us = Array.init (List.length kinds) (fun _ -> Buf.create ()) in
  let traced_rates = Buf.create () in
  let events = ref 0 and traced_events = ref 0 and measured_lookups = ref 0 in
  let shed = ref 0 and refresh_sends = ref 0 in
  let hits = ref 0 and coalesced = ref 0 and evictions = ref 0 and cached_lookups = ref 0 in
  let repair_msgs = ref 0 and ticks = ref 0 in
  let cal = Speed.start () in
  for r = 0 to spec.rounds - 1 do
    let rseed = Rng.int master 0x3FFFFFFF in
    let traced = traced_round ~trace r in
    let setup_raw = ref 0. and setup_norm = ref 0. in
    let run_raw = ref 0. and run_norm = ref 0. and round_lookups = ref 0 in
    List.iter
      (fun config ->
        List.iteri
          (fun pi pop ->
            let tally = if r > 0 then tallies.(pi) else new_tally () in
            let before = tally.lookups in
            let t0 = now_ns () in
            let cell =
              crowd_cell
                ~seed:(Hashtbl.hash (rseed, Service.config_name config))
                ~config ~cached:(pi = 1) ~horizon:spec.horizon ~trace ~tally
            in
            let t1 = now_ns () in
            let d0 = !T.depth in
            let run () =
              T.on := traced;
              if traced then T.enter T.sim_run (T.label cell.name);
              let t2 = now_ns () in
              match if traced then step_timed cell.engine else Engine.run cell.engine with
              | fired ->
                let d = now_ns () - t2 in
                if traced then ignore (T.exit ());
                T.on := false;
                (fired, d)
              | exception e ->
                T.on := false;
                T.unwind_to d0;
                violation "%s/%s: Engine.run raised %s" cell.name pop (Printexc.to_string e);
                (0, now_ns () - t2)
            in
            let fired_events, run_ns = if r > 0 then gc_measured run else run () in
            let f = Speed.next cal in
            setup_raw := !setup_raw +. secs (t1 - t0);
            setup_norm := !setup_norm +. (secs (t1 - t0) /. f);
            run_raw := !run_raw +. secs run_ns;
            run_norm := !run_norm +. (secs run_ns /. f);
            let lookups = tally.lookups - before in
            round_lookups := !round_lookups + lookups;
            (* Checks: every lookup's callback fired exactly once (more
               than once is caught as it happens), and no deleted entry
               survives on an up server. *)
            attempted := !attempted + Array.length cell.fired + 1;
            Array.iteri
              (fun idx n ->
                if n = 0 then violation "%s/%s lookup %d: callback never fired" cell.name pop idx)
              cell.fired;
            let resurrected =
              Entry.Set.filter
                (fun e -> cell.deleted_at.(Entry.id e) < infinity)
                (Cluster.coverage (Service.cluster cell.service))
            in
            if not (Entry.Set.is_empty resurrected) then
              violation "%s/%s: coverage holds %d deleted entries after the day" cell.name pop
                (Entry.Set.cardinal resurrected);
            if r > 0 then begin
              Buf.push (if traced then traced_slowdowns else slowdowns) f;
              measured_lookups := !measured_lookups + lookups;
              events := !events + fired_events;
              if traced then traced_events := !traced_events + fired_events
              else begin
                push_call ~raw_us:(float_of_int run_ns /. 1e3) ~slowdown:f;
                let ki = kind_index config in
                Array.iter
                  (fun us -> if ki >= 0 then Buf.push update_us.(ki) (us /. f))
                  (Buf.to_array cell.updates_us)
              end;
              shed := !shed + Cluster.messages_shed (Service.cluster cell.service);
              Option.iter
                (fun rep ->
                  repair_msgs := !repair_msgs + Repair.repair_messages rep;
                  ticks := !ticks + Repair.daemon_ticks rep)
                (Service.repair cell.service);
              Option.iter
                (fun c ->
                  let s = Client_cache.stats c in
                  hits := !hits + s.Client_cache.hits + s.Client_cache.stale_served;
                  coalesced := !coalesced + s.Client_cache.coalesced;
                  evictions := !evictions + s.Client_cache.evictions;
                  refresh_sends := !refresh_sends + s.Client_cache.refresh_sends;
                  cached_lookups := !cached_lookups + lookups)
                cell.ccache;
            end)
          pops)
      configs;
    push_setup ~raw:!setup_raw ~slowdown:(!setup_raw /. Float.max 1e-12 !setup_norm);
    if traced then Buf.push traced_rates (ratio (float_of_int !round_lookups) !run_norm)
    else if r > 0 then
      push_round ~ops:(float_of_int !round_lookups) ~raw_s:!run_raw ~norm_s:!run_norm
  done;
  let heap = heap_peak_mb () in
  report_e2e ~heap;
  report_gc ~ops:!measured_lookups;
  List.iteri (fun ki kind -> set ("service.update_us." ^ kind) (Buf.median update_us.(ki))) kinds;
  let attempts = tallies.(0).attempts + tallies.(1).attempts in
  set "net.msgs_per_lookup" (fratio (attempts + !refresh_sends) !measured_lookups);
  set "net.msgs_per_update" (fratio T.msgs.(T.update) T.count.(T.update));
  set "net.shed_pct" (100. *. fratio !shed attempts);
  layer_time "strategy.update_client_self_us" (T.mean_self_ns T.update /. 1e3);
  layer_time "server.handler_ns_per_msg" (T.mean_self_ns T.handler);
  set "server.handler_share_pct" (100. *. fratio T.self_ns.(T.handler) !T.top_ns);
  set "sim.events" (float_of_int !events);
  set "sim.events_per_lookup" (fratio !events !measured_lookups);
  layer_time "sim.host_ns_per_event" (fratio T.total_ns.(T.sim_run) !traced_events);
  set "sim.residual_share_pct" (100. *. fratio T.self_ns.(T.sim_run) T.total_ns.(T.sim_run));
  layer_time "client.launch_ns" (Buf.median launch_ns);
  layer_time "cache.hit_ns" (Buf.median hit_ns);
  set "cache.hit_pct" (100. *. fratio !hits !cached_lookups);
  set "cache.coalesced_pct" (100. *. fratio !coalesced !cached_lookups);
  set "cache.evictions" (float_of_int !evictions);
  set "repair.msgs" (float_of_int !repair_msgs);
  set "repair.daemon_ticks" (float_of_int !ticks);
  layer_time "repair.recover_us" (fratio !recover_ns !recovers /. 1e3);
  List.iteri
    (fun pi pop ->
      let tl = tallies.(pi) in
      let per x = fratio x tl.lookups in
      set ("client.attempts_per_lookup." ^ pop) (per tl.attempts);
      set ("client.timeouts_per_lookup." ^ pop) (per tl.timeouts);
      set ("client.hedges_per_lookup." ^ pop) (per tl.hedges);
      set ("client.busies_per_lookup." ^ pop) (per tl.busies);
      set ("client.gave_up_pct." ^ pop) (100. *. per tl.gave_up);
      set ("sim.success_pct." ^ pop) (100. *. per tl.satisfied);
      set ("sim.crowd_p99_ms." ^ pop) (Stat.percentile (Buf.to_array tl.crowd_ms) 99.);
      set ("sim.msgs_per_lookup." ^ pop) (per (tl.attempts + if pi = 1 then !refresh_sends else 0)))
    pops;
  set "sim.stale.cached" (float_of_int tallies.(1).stale);
  set "trace.overhead_pct" (rate_overhead_pct traced_rates);
  [ ("n", Json.Num (float_of_int crowd_n));
    ("h", Json.Num (float_of_int crowd_h));
    ("t", Json.Num (float_of_int crowd_t));
    ("strategies", Json.Arr (List.map (fun s -> Json.Str s) crowd_configs));
    ("populations", Json.Arr (List.map (fun p -> Json.Str p) pops));
    ("horizon", Json.Num spec.horizon);
    ("rounds", Json.Num (float_of_int spec.rounds)) ]

(* {1 repro: every registered experiment, as a researcher runs them}

   A chunk is one experiment run; it lasts up to seconds, so the
   calibration kernel is also sampled inside it ({!Speed.inside}). *)

type repro_spec = { scale : float; passes : int; warm_scale : float; warmups : int }

let check_table id table =
  let columns = List.length (Table.columns table) in
  let rows = Table.rows table in
  if rows = [] then violation "%s: empty table" id;
  List.iteri
    (fun i row ->
      if List.length row <> columns then
        violation "%s row %d: %d cells, %d columns" id i (List.length row) columns;
      List.iter
        (function
          | Table.F f | Table.F4 f ->
            if not (Float.is_finite f) then violation "%s row %d: non-finite cell %f" id i f
          | Table.S _ | Table.I _ -> ())
        row)
    rows

let run_experiment ~seed ~scale id =
  match Registry.find id with
  | None -> failwith ("no registered experiment " ^ id)
  | Some e -> e.Registry.run (Ctx.v ~seed ~scale ~jobs:1 ())

let run_repro spec ~seed ~trace =
  let cal = Speed.start () in
  (* Set-up is a warm-up pass at a tiny scale: it grows the heap and runs
     every experiment's lazy initialisation before timing. *)
  for _ = 1 to spec.warmups do
    let raw = ref 0. and norm = ref 0. in
    List.iter
      (fun id ->
        incr attempted;
        let d =
          match Speed.inside cal (fun () -> run_experiment ~seed ~scale:spec.warm_scale id) with
          | _, ns -> secs ns
          | exception e ->
            violation "%s (warm-up) raised %s" id (Printexc.to_string e);
            0.
        in
        raw := !raw +. d;
        norm := !norm +. (d /. Speed.next cal))
      repro_ids;
    push_setup ~raw:!raw ~slowdown:(!raw /. !norm)
  done;
  let nexp = List.length repro_ids in
  (* Each pass draws its own seed from --seed, so a run averages over
     several seeds' worth of Monte-Carlo work. *)
  let master = Rng.create seed in
  let walls = Array.make_matrix spec.passes nexp 0. in
  let raw_walls = Array.make_matrix spec.passes nexp 0. in
  let traced_walls = Buf.create () and untraced_walls = Buf.create () in
  for p = 0 to spec.passes - 1 do
    let traced = traced_round ~trace p in
    let pass_seed = Rng.int master 0x3FFFFFFF in
    let raw = ref 0. and norm = ref 0. in
    List.iteri
      (fun i id ->
        incr attempted;
        if traced then T.enter T.experiment (T.label id);
        let run () = gc_measured (fun () -> run_experiment ~seed:pass_seed ~scale:spec.scale id) in
        match Speed.inside cal run with
        | table, ns ->
          if traced then ignore (T.exit ());
          let d = secs ns in
          let f = Speed.next cal in
          walls.(p).(i) <- d /. f;
          raw_walls.(p).(i) <- d;
          raw := !raw +. d;
          norm := !norm +. (d /. f);
          Buf.push (if traced then traced_slowdowns else slowdowns) f;
          check_table id table
        | exception e ->
          T.unwind_to 0;
          ignore (Speed.next cal);
          violation "%s raised %s" id (Printexc.to_string e))
      repro_ids;
    if traced then Buf.push traced_walls !norm
    else begin
      Buf.push untraced_walls !norm;
      push_round ~ops:(float_of_int nexp) ~raw_s:!raw ~norm_s:!norm
    end
  done;
  (* An experiment's call time is its median over the untraced passes,
     so the percentiles run over the 14 experiments instead of over
     extreme order statistics of a few seeds. *)
  let untraced = List.filter (fun p -> not (traced_round ~trace p)) (List.init spec.passes Fun.id) in
  List.iteri
    (fun i _ ->
      let med m = Stat.median (Array.of_list (List.map (fun p -> m.(p).(i)) untraced)) in
      let raw = med raw_walls and norm = med walls in
      if norm > 0. then push_call ~raw_us:(raw *. 1e6) ~slowdown:(raw /. norm))
    repro_ids;
  report_e2e ~heap:(heap_peak_mb ());
  report_gc ~ops:(spec.passes * nexp);
  List.iteri
    (fun i id ->
      set ("experiments." ^ id ^ ".wall_s") (Stat.median (Array.init spec.passes (fun p -> walls.(p).(i)))))
    repro_ids;
  set "trace.overhead_pct"
    (overhead_pct ~untraced:(Buf.to_array untraced_walls) ~traced:(Buf.to_array traced_walls));
  [ ("scale", Json.Num spec.scale);
    ("experiments", Json.Arr (List.map (fun s -> Json.Str s) repro_ids));
    ("passes", Json.Num (float_of_int spec.passes));
    ("warmup_scale", Json.Num spec.warm_scale);
    ("warmups", Json.Num (float_of_int spec.warmups)) ]

(* {1 Sizing}

   Work is a fixed function of --seconds (and --smoke), never of the
   clock, so a given seed and length always run the same inputs.  Each
   [round_s] is the wall time of one untraced round, checks and
   calibration included, on the reference host; rounds are sized so the
   measured rounds take about --seconds there. *)

let rounds_for ~seconds ~round_s ~min =
  max min (1 + int_of_float (Float.round (float_of_int seconds /. round_s)))

let paper_spec ~seconds ~smoke =
  let base =
    { n = 10;
      h = 100;
      t = 35;
      configs = crowd_configs;
      lookup_share = 0.9;
      ops_per_round = 10_000;
      rounds = rounds_for ~seconds ~round_s:0.75 ~min:4;
      setups = 9 }
  in
  if smoke then { base with ops_per_round = 500; rounds = 3; setups = 2 } else base

let scale_spec ~seconds ~smoke =
  let base =
    { n = 10_000;
      h = 10_000;
      t = 35;
      configs = [ "randomserver-2"; "roundrobin-2"; "hash-2"; "chord-2"; "dxhash-2"; "multiprobe-2x2" ];
      lookup_share = 0.95;
      ops_per_round = 100;
      rounds = rounds_for ~seconds ~round_s:0.32 ~min:4;
      setups = 3 }
  in
  if smoke then { base with n = 1000; h = 1000; ops_per_round = 20; rounds = 3; setups = 1 } else base

let crowd_spec ~seconds ~smoke =
  if smoke then { rounds = 3; horizon = 100. }
  else { rounds = rounds_for ~seconds ~round_s:0.35 ~min:4; horizon = 600. }

let repro_spec ~seconds ~smoke =
  if smoke then { scale = 0.01; passes = 2; warm_scale = 0.01; warmups = 0 }
  else
    { scale = 0.35;
      passes = max 3 (int_of_float (Float.round (float_of_int seconds /. 5.)));
      warm_scale = 0.02;
      warmups = 3 }

let workloads = [ "paper-n10"; "scale-n10k"; "crowd"; "repro" ]

(* {1 Command line and output} *)

let usage () =
  prerr_endline
    "usage: run.exe --workload (paper-n10|scale-n10k|crowd|repro) --seed N [--seconds N] \
     [--trace 0|1] [--smoke] [--out FILE]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  smoke : bool;
  out : string option;
}

let parse_args argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = int_of_string s } rest
    | "--trace" :: (("0" | "1") as v) :: rest -> go { a with trace = v = "1" } rest
    | "--smoke" :: rest -> go { a with smoke = true } rest
    | "--out" :: f :: rest -> go { a with out = Some f } rest
    | arg :: _ ->
      prerr_endline ("run.exe: unexpected argument " ^ arg);
      usage ()
  in
  let a =
    try go { workload = ""; seed = -1; seconds = 15; trace = false; smoke = false; out = None } argv
    with Failure _ -> usage ()
  in
  if (not (List.mem a.workload workloads)) || a.seed < 0 || a.seconds < 1 then usage ();
  a

let iso_time t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let started = Unix.gettimeofday () in
  if args.trace then T.alloc_spans (1 lsl 18);
  let { seconds; smoke; seed; trace; _ } = args in
  let sizes =
    match args.workload with
    | "paper-n10" -> run_sync (paper_spec ~seconds ~smoke) ~seed ~trace
    | "scale-n10k" -> run_sync (scale_spec ~seconds ~smoke) ~seed ~trace
    | "crowd" -> run_crowd (crowd_spec ~seconds ~smoke) ~seed ~trace
    | _ -> run_repro (repro_spec ~seconds ~smoke) ~seed ~trace
  in
  let wall = Unix.gettimeofday () -. started in
  let emitted = if trace then per_layer else end_to_end in
  let metric (name, unit_) =
    (name, Json.Obj [ ("value", Json.Num (get name)); ("unit", Json.Str unit_) ])
  in
  let metrics = Json.Obj (List.map metric emitted) in
  let out =
    match args.out with
    | Some f -> f
    | None ->
      Printf.sprintf "bench/e2e/results/%s-s%d-trace%d.json" args.workload seed
        (if trace then 1 else 0)
  in
  mkdir_p (Filename.dirname out);
  let spans_file = Filename.remove_extension out ^ ".spans.jsonl" in
  if trace then T.write_spans spans_file;
  let manifest =
    Json.Obj
      [ ("workload", Json.Str args.workload);
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num (float_of_int seconds));
        ("smoke", Json.Bool smoke);
        ("trace", Json.Bool trace);
        ("jobs", Json.Num 1.);
        ("sizes", Json.Obj sizes);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("profile", Json.Str Build_profile.name);
        ("cores", Json.Num (float_of_int (Pool.recommended_jobs ())));
        ("started_at", Json.Str (iso_time started));
        ("wall_s", Json.Num wall);
        ("command", Json.Str (String.concat " " (Array.to_list Sys.argv))) ]
  in
  let correct = !failed = 0 in
  let summary =
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int !attempted));
      ("failed", Json.Num (float_of_int !failed)) ]
  in
  let result =
    Json.Obj
      ([ ("manifest", manifest) ]
      @ summary
      @ [ ("fail_pct", Json.Num (100. *. fratio !failed !attempted));
          ("violations", Json.Arr (List.rev_map (fun v -> Json.Str v) !violations));
          ("metrics", metrics);
          ("unnormalized", !unnormalized) ]
      @
      if trace then
        [ ("spans", Json.Str spans_file); ("spans_lost", Json.Num (float_of_int !T.spans_lost)) ]
      else [])
  in
  let oc = open_out out in
  output_string oc (Json.to_string result);
  output_char oc '\n';
  close_out oc;
  Printf.printf "%s seed %d%s: %d ops attempted, %d failed, %.1f s\n" args.workload seed
    (if trace then " (traced)" else "")
    !attempted !failed wall;
  List.iter (fun (name, unit_) -> Printf.printf "  %-40s %14.4f %s\n" name (get name) unit_) emitted;
  Printf.printf "result: %s\n" out;
  print_endline (Json.to_string (Json.Obj (summary @ [ ("metrics", metrics) ])));
  exit (if correct then 0 else 1)
