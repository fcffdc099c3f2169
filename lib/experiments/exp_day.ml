open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine
module Hotspot = Plookup_workload.Hotspot
module Net = Plookup_net.Net
module Metrics = Plookup_obs.Metrics

let id = "day"

let title =
  "Extension: a production day under overload, naive vs tail-tolerant clients (flash \
   crowd, gray failure, churn)"

let n = 10
let h = 100
let budget = 200
let t = 35
let keys = 50
let alpha = 1.1
let rtt_lo = 5.
let rtt_hi = 50.
let timeout = 2. *. rtt_hi
let base_rate = 1.0
let update_every = 10.

type mode = Naive | Tuned | Cached

let mode_name = function Naive -> "naive" | Tuned -> "tuned" | Cached -> "tuned+cache"

type tally = {
  mutable lookups : int;
  mutable satisfied : int;  (* >= t *live* entries returned *)
  mutable stale : int;  (* entries returned after their delete time *)
  mutable sends : int;  (* data-plane requests (attempts incl. retries/hedges) *)
  mutable hedges : int;
  mutable gave_up : int;
}

type cell_result = {
  tally : tally;
  shed : int;
  skew : float;
  p50 : float;
  p99_crowd : float;
  p999_crowd : float;
  msgs_per_lookup : float;
      (* data-plane requests per lookup, background cache refreshes included *)
  hit_pct : float;  (* lookups answered without their own probe fan-out *)
  events : int;  (* engine events the day fired *)
}

(* One simulated day of one strategy under one client/server discipline.

   Open-loop arrivals: a non-homogeneous Poisson process whose rate
   follows a diurnal sine swing plus a 6x flash crowd in the window
   [0.45, 0.60] * horizon; during the crowd two servers are gray-degraded
   (service time multiplied by [ov.degrade]).  Key popularity is Zipf
   over [keys] ranks; each rank owns a fixed probe-order permutation, so
   popular keys hammer the same order head and skew the load.  Churn,
   repair and a steady delete+add update stream run concurrently: the
   day is a lookup workload on the churn drill.

   Naive cells shed silently (clients discover overload by timeout) and
   retry with plain exponential backoff.  Tuned cells shed with the
   [Busy] fast nack and run the tail-tolerant client: deadline budget,
   hedged backups at the cell's own observed latency quantile, a shared
   per-server circuit breaker, and decorrelated retry jitter.  Cached
   cells are the tuned client plus a shared {!Client_cache} keyed by
   rank; when the cache config's [hotspot] blend is on, every mode aims
   that fraction of its lookups at the strategy's worst-placed key
   ({!Plookup_workload.Hotspot}), so the three cells still face the
   identical workload.

   The context's overrides replace the day's defaults. *)
let run_cell ctx ~obs ~mode config =
  let mttf = Option.value ctx.Ctx.mttf ~default:250. in
  let mttr = Option.value ctx.Ctx.mttr ~default:20. in
  let horizon = Option.value ctx.Ctx.horizon ~default:600. in
  let horizon = float_of_int (Ctx.scaled ctx (int_of_float horizon)) in
  let repair = ctx.Ctx.repair in
  let ov = ctx.Ctx.overload in
  let cache = ctx.Ctx.cache in
  let d =
    Churn_drill.start ctx ~obs ~n ~h ~mttf ~mttr ~horizon ~update_every ~repair config
  in
  let seed = d.seed and engine = d.engine in
  let cluster = Service.cluster d.service in
  Ctx.apply_faults ctx cluster;
  Cluster.set_capacity cluster ~service_rate:ov.Ctx.service_rate
    ~queue_limit:ov.Ctx.capacity ~nack:(mode = Tuned) ();
  (* The flash-crowd window doubles as the gray-failure window: servers
     0 and 1 slow down by [ov.degrade] while the crowd hammers. *)
  let crowd_lo = 0.45 *. horizon and crowd_hi = 0.60 *. horizon in
  let in_crowd tau = tau >= crowd_lo && tau < crowd_hi in
  let degraded = [ 0; 1 ] in
  ignore
    (Engine.schedule_at engine ~time:crowd_lo (fun _ ->
         List.iter (fun s -> Cluster.set_degraded cluster s ~factor:ov.Ctx.degrade) degraded));
  ignore
    (Engine.schedule_at engine ~time:crowd_hi (fun _ ->
         List.iter (fun s -> Cluster.set_degraded cluster s ~factor:1.0) degraded));
  (* Each Zipf rank owns a fixed probe-order permutation. *)
  let orders =
    Array.init (keys + 1) (fun r ->
        Array.to_list (Rng.perm (Rng.create (seed + (7919 * (r + 1)))) n))
  in
  (* Hotspot-adversarial blend: a [hotspot] fraction of lookups targets
     the rank whose probe order is worst placed for this strategy's
     initial placement.  Off ([hs = 0]) makes no extra draws, so the
     default day is untouched. *)
  let hs = match cache with Some c -> c.Ctx.hotspot | None -> 0. in
  let worst_rank =
    if hs > 0. then begin
      let held = Array.init n (fun s -> Server_store.cardinal (Cluster.store cluster s)) in
      Hotspot.worst ~lo:1 ~orders ~held ~t ()
    end
    else 0
  in
  let labels =
    [ ("strategy", Service.config_name config); ("mode", mode_name mode) ]
  in
  let m = obs.Plookup_obs.Obs.metrics in
  let hist_all = Metrics.histogram m ~labels "day.lookup.latency" in
  let hist_crowd = Metrics.histogram m ~labels "day.lookup.latency.crowd" in
  let breaker = Async_client.Breaker.create ~threshold:ov.Ctx.breaker ~cooldown:100. ~n () in
  let jitter_rng = Rng.create (seed lxor 0x9177) in
  let latency_rng = Rng.create (seed lxor 0x1A7E) in
  (* One hop is half a round trip. *)
  let latency () = Dist.uniform_in latency_rng ~lo:(rtt_lo /. 2.) ~hi:(rtt_hi /. 2.) in
  let key_rng = Rng.create (seed lxor 0x21F) in
  let arr_rng = Rng.create (seed lxor 0xA331) in
  let tally =
    { lookups = 0; satisfied = 0; stale = 0; sends = 0; hedges = 0; gave_up = 0 }
  in
  let record o =
    let lat = Async_client.elapsed o in
    Metrics.observe hist_all lat;
    if in_crowd o.Async_client.started_at then Metrics.observe hist_crowd lat;
    tally.lookups <- tally.lookups + 1;
    let returned = o.Async_client.result.Lookup_result.entries in
    (* An entry only counts as stale (and against success) when it was
       already deleted before the lookup began; an entry deleted while
       the lookup's datagrams were in flight was a valid answer when
       the client asked. *)
    let stale =
      List.length
        (List.filter
           (fun e -> d.deleted_at.(Entry.id e) <= o.Async_client.started_at)
           returned)
    in
    if List.length returned - stale >= t then tally.satisfied <- tally.satisfied + 1;
    tally.stale <- tally.stale + stale;
    tally.sends <- tally.sends + o.Async_client.attempts;
    tally.hedges <- tally.hedges + o.Async_client.hedges;
    if o.Async_client.gave_up then tally.gave_up <- tally.gave_up + 1
  in
  let rate_at tau =
    let diurnal = 1. +. (0.6 *. sin (2. *. Float.pi *. tau /. horizon)) in
    let flash = if in_crowd tau then 6. else 1. in
    base_rate *. diurnal *. flash
  in
  let ccache =
    match mode with
    | Cached ->
      let cc = Option.value cache ~default:Ctx.default_cache in
      Some
        (Client_cache.create ~obs ~ttl:cc.Ctx.cache_ttl ~swr:cc.Ctx.swr
           ~capacity:cc.Ctx.cache_cap ())
    | Naive | Tuned -> None
  in
  (* The hedge delay self-tunes: the configured quantile of the cell's
     own latency so far, once enough samples exist. *)
  let hedge_delay () =
    if Metrics.histogram_count hist_all < 30 then 2. *. rtt_hi
    else Float.max (rtt_hi /. 2.) (Metrics.histogram_quantile hist_all ov.Ctx.hedge)
  in
  let launch rank _ =
    let order = orders.(rank) in
    match mode with
    | Naive ->
      Async_client.lookup cluster engine ~latency ~timeout ~retries:2 ~order ~t record
    | Tuned ->
      Async_client.lookup cluster engine ~latency ~timeout ~retries:2
        ~deadline:ov.Ctx.deadline ~hedge:(hedge_delay ()) ~breaker ~jitter:jitter_rng
        ~order ~t record
    | Cached ->
      Async_client.lookup cluster engine ~latency ~timeout ~retries:2
        ~deadline:ov.Ctx.deadline ~hedge:(hedge_delay ()) ~breaker ~jitter:jitter_rng
        ?cache:(Option.map (fun c -> (c, rank)) ccache) ~order ~t record
  in
  let draw_rank () =
    if hs > 0. then
      Hotspot.draw key_rng ~focus:hs ~worst:worst_rank
        ~rest:(fun rng -> Dist.zipf_ranks rng ~n:keys ~alpha)
    else Dist.zipf_ranks key_rng ~n:keys ~alpha
  in
  let rec arrivals tau =
    let tau = tau +. Dist.poisson_interarrival arr_rng ~rate:(rate_at tau) in
    if tau < horizon then begin
      let rank = draw_rank () in
      ignore (Engine.schedule_at engine ~time:tau (launch rank));
      arrivals tau
    end
  in
  arrivals 0.;
  let events = Engine.run engine in
  let net = Cluster.net cluster in
  let per_server = Array.init n (fun i -> Net.messages_received_by net i) in
  let total = Array.fold_left ( + ) 0 per_server in
  let peak = Array.fold_left max 0 per_server in
  let skew =
    if total = 0 then 1.
    else float_of_int peak /. (float_of_int total /. float_of_int n)
  in
  let refresh_sends, hit_pct =
    match ccache with
    | None -> (0, 0.)
    | Some c ->
      let s = Client_cache.stats c in
      ( s.Client_cache.refresh_sends,
        100.
        *. float_of_int
             (s.Client_cache.hits + s.Client_cache.stale_served + s.Client_cache.coalesced)
        /. float_of_int (max 1 tally.lookups) )
  in
  { tally;
    shed = Cluster.messages_shed cluster;
    skew;
    p50 = Metrics.histogram_quantile hist_all 50.;
    p99_crowd = Metrics.histogram_quantile hist_crowd 99.;
    p999_crowd = Metrics.histogram_quantile hist_crowd 99.9;
    msgs_per_lookup =
      float_of_int (tally.sends + refresh_sends) /. float_of_int (max 1 tally.lookups);
    hit_pct;
    events }

(* Every registered strategy, Fixed-x overridden as in the churn drill
   (it needs x >= t to play at all). *)
let configs () =
  List.map
    (fun config -> if Service.kind config = "Fixed" then Service.fixed (t + 5) else config)
    (Service.all_configs ~budget ~n ~h ())

let events_per_lookup ctx =
  List.map
    (fun config ->
      let r = run_cell ctx ~obs:(Plookup_obs.Obs.create ()) ~mode:Tuned config in
      ( Service.config_name config,
        float_of_int r.events /. float_of_int (max 1 r.tally.lookups) ))
    (configs ())

let run ctx =
  let cache = ctx.Ctx.cache in
  (* The cached cell and its two extra columns exist only when the
     context carries a cache config, so the default day table stays
     byte-identical to the cache-free build. *)
  let table =
    Table.create ~title
      ~columns:
        ([ "strategy";
           "client";
           "success %";
           "p50 ms";
           "crowd p99 ms";
           "crowd p999 ms";
           "skew";
           "shed %";
           "hedge %";
           "stale" ]
        @ (if cache = None then [] else [ "msgs/lookup"; "hit %" ]))
  in
  let configs = configs () in
  (* One parallel unit per (strategy, client) cell.  Both cells of a
     strategy share the seed derived from the strategy name, so naive
     and tuned face the identical day: same arrivals, same key
     popularity, same churn, same degradation. *)
  let modes = if cache = None then [ Naive; Tuned ] else [ Naive; Tuned; Cached ] in
  let cells =
    Array.of_list
      (List.concat_map (fun config -> List.map (fun m -> (config, m)) modes) configs)
  in
  let measured =
    Runner.map_obs ctx ~count:(Array.length cells)
      (fun i ~obs ->
        let config, mode = cells.(i) in
        (config, mode, run_cell ctx ~obs ~mode config))
  in
  Array.iter
    (fun (config, mode, r) ->
      let pct num den = 100. *. float_of_int num /. float_of_int (max 1 den) in
      Table.add_row table
        ([ Table.S (Service.config_name config);
           Table.S (mode_name mode);
           Table.F (pct r.tally.satisfied r.tally.lookups);
           Table.F r.p50;
           Table.F r.p99_crowd;
           Table.F r.p999_crowd;
           Table.F r.skew;
           Table.F (pct r.shed r.tally.sends);
           Table.F (pct r.tally.hedges r.tally.sends);
           Table.I r.tally.stale ]
        @ (if cache = None then [] else [ Table.F r.msgs_per_lookup; Table.F r.hit_pct ])))
    measured;
  table
