open Plookup
open Plookup_store
open Plookup_util
module Metrics = Plookup_metrics
module Update_gen = Plookup_workload.Update_gen
module Replay = Plookup_workload.Replay
module Churn = Plookup_workload.Churn
module Engine = Plookup_sim.Engine
module Net = Plookup_net.Net

(* A steady-state Section 6.1 stream over [h] entries, one add per 10
   time units.  It draws from run seed 1, so every row replays the
   identical updates; services take their seeds from run 2 on. *)
let stream ctx ~h ~updates =
  Update_gen.generate (Rng.create (Ctx.run_seed ctx 1))
    { Update_gen.steady_entries = h; add_period = 10.; tail_heavy = false; updates }

(* Appendix A: how optimistic is the greedy adversary against the exact
   minimum breaking set on real placements?  Each replicate places once
   and scores every t on that placement. *)
let ft_exact ctx =
  let n = 8 and h = 40 and ts = [ 10; 20 ] in
  let runs = Ctx.scaled ctx 40 in
  List.concat_map
    (fun config ->
      let samples =
        Runner.replicates_obs ctx ~count:runs (fun ~seed ~obs ->
            let service = Service.create ~seed ~obs ~n config in
            Service.place service (Entry.Gen.batch (Entry.Gen.create ()) h);
            let p = Metrics.Fault_tolerance.snapshot (Service.cluster service) ~capacity:h in
            List.map
              (fun t -> (Metrics.Fault_tolerance.greedy p ~t, Metrics.Fault_tolerance.exact p ~t))
              ts)
      in
      List.mapi
        (fun k t ->
          let pick f = Array.map (fun s -> float_of_int (f (List.nth s k))) samples in
          let gaps = pick (fun (g, e) -> g - e) in
          [ Table.S (Service.config_name config);
            Table.I t;
            Table.F (Runner.mean_of (pick fst));
            Table.F (Runner.mean_of (pick snd));
            Table.F (Runner.mean_of gaps);
            Table.F (snd (Stats.min_max gaps)) ])
        ts)
    [ Service.random_server 10; Service.hash 2; Service.round_robin 2 ]

(* Section 5.3's delete alternatives on one stream: the cushion scheme
   (holes) vs fetching replacements.  The paper predicts replacement
   costs more messages and does not help unfairness. *)
let delete_policy ctx =
  let n = 10 and h = 100 and seed = Ctx.run_seed ctx 2 in
  let updates = Ctx.scaled ctx 2000 and lookups = Ctx.scaled ctx 4000 in
  let stream = stream ctx ~h ~updates in
  let live = Update_gen.live_after stream updates in
  let policies =
    [| ("cushion (paper's choice)", Service.random_server 20);
       ("active replacement", Service.random_server_replacing 20) |]
  in
  Array.to_list
    (Runner.map_obs ctx ~count:(Array.length policies) (fun i ~obs ->
         let name, config = policies.(i) in
         let service = Service.create ~seed ~obs ~n config in
         let msgs = Replay.messages_for_updates ~service ~stream in
         let stored = Metrics.Storage.measured (Service.cluster service) in
         [ Table.S name;
           Table.F (float_of_int msgs /. float_of_int updates);
           Table.F4 (Metrics.Unfairness.of_instance service ~live ~t:1 ~lookups);
           Table.F (float_of_int stored /. float_of_int n) ]))

(* Section 6.3's bottleneck argument, quantified on one stream:
   Round-y funnels every update through the coordinator (server 0),
   Hash-y spreads them by the hash functions, and Fixed-x's broadcasts
   touch everyone equally. *)
let coord_load ctx =
  let n = 10 and h = 100 and seed = Ctx.run_seed ctx 2 in
  let stream = stream ctx ~h ~updates:(Ctx.scaled ctx 4000) in
  let configs =
    [| Service.round_robin 2; Service.hash 2; Service.fixed 20; Service.random_server 20 |]
  in
  Array.to_list
    (Runner.map_obs ctx ~count:(Array.length configs) (fun i ~obs ->
         let service = Service.create ~seed ~obs ~n configs.(i) in
         let msgs = Replay.messages_for_updates ~service ~stream in
         let net = Cluster.net (Service.cluster service) in
         let loads = Array.init n (Net.messages_received_by net) in
         let summary = Metrics.Load.summarize loads in
         [ Table.S (Service.config_name configs.(i));
           Table.I msgs;
           Table.F (100. *. float_of_int loads.(0) /. float_of_int (max 1 msgs));
           Table.F summary.Metrics.Load.peak_to_average;
           Table.F summary.Metrics.Load.cov ]))

(* Footnote 1: replicating Round-Robin's head/tail coordinator.  What
   does each extra replica cost per update, and how many adds stop being
   lost when the coordinators' servers churn?  Every replica count
   replays the same stream against the same churn schedule. *)
let coord_replicas ctx =
  let n = 10 and h = 100 in
  let updates = Ctx.scaled ctx 2000 in
  let stream = stream ctx ~h ~updates in
  let placed ~obs ~seed coordinators =
    let cluster = Cluster.create ~seed ~obs ~n () in
    let strategy = Round_robin.create ~coordinators cluster ~y:2 in
    Round_robin.place strategy stream.Update_gen.initial;
    (cluster, strategy)
  in
  Array.to_list
    (Runner.map_obs ctx ~count:3 (fun i ~obs ->
         let coordinators = i + 1 in
         (* Cost: the stream with no failures. *)
         let cluster, strategy = placed ~obs ~seed:(Ctx.run_seed ctx 2) coordinators in
         Net.reset_counters (Cluster.net cluster);
         Array.iter
           (function
             | Update_gen.Add e -> Round_robin.add strategy e
             | Update_gen.Delete e -> Round_robin.delete strategy e)
           stream.Update_gen.ops;
         let msgs = Net.messages_received (Cluster.net cluster) in
         (* Availability: the same updates at their stream times, with
            every server churning; count the adds that landed. *)
         let cluster, strategy = placed ~obs ~seed:(Ctx.run_seed ctx 3) coordinators in
         let engine = Engine.create () in
         Net.attach_engine (Cluster.net cluster) engine;
         let horizon = Array.fold_left Float.max 0. stream.Update_gen.times in
         Churn.drive engine
           ~apply:(fun ev ->
             if ev.Churn.up then Cluster.recover cluster ev.Churn.server
             else Cluster.fail cluster ev.Churn.server)
           (Churn.generate (Rng.create (Ctx.run_seed ctx 4)) ~n ~mttf:50. ~mttr:50. ~horizon);
         let attempted = ref 0 and accepted = ref 0 in
         Array.iteri
           (fun i op ->
             ignore
               (Engine.schedule_at engine ~time:stream.Update_gen.times.(i) (fun _ ->
                    match op with
                    | Update_gen.Add e ->
                      incr attempted;
                      Round_robin.add strategy e;
                      if Round_robin.position_of strategy e <> None then incr accepted
                    | Update_gen.Delete e -> Round_robin.delete strategy e)))
           stream.Update_gen.ops;
         ignore (Engine.run engine);
         [ Table.I coordinators;
           Table.F (float_of_int msgs /. float_of_int updates);
           Table.F (100. *. float_of_int !accepted /. float_of_int (max 1 !attempted)) ]))

(* Hash-y sizing: the paper's y = ceil(tn/h) ignores hash collisions;
   the collision-aware choice buys lookup cost with extra storage.  Both
   rules of one h share a seed, so they see the same placements'
   randomness. *)
let hash_y ctx =
  let n = 10 and t = 40 and hs = [| 100; 150; 200; 300; 400 |] in
  let runs = Ctx.scaled ctx 30 and lookups_per_run = Ctx.scaled ctx 100 in
  Array.to_list
    (Runner.map_obs ctx ~count:(Array.length hs) (fun i ~obs ->
         let h = hs.(i) in
         let plain = Metrics.Analytic.optimal_hash_y ~n ~h ~t in
         let aware = Metrics.Analytic.optimal_hash_y_collision_aware ~n ~h ~t in
         let cost y =
           (Metrics.Lookup_cost.measure_over_instances ~seed:(Ctx.run_seed ctx (i + 1)) ~obs
              ~n ~entries:h ~config:(Service.hash y) ~t ~runs ~lookups_per_run ())
             .Metrics.Lookup_cost.mean_cost
         in
         let storage y = Metrics.Analytic.storage (Service.hash y) ~n ~h in
         [ Table.I h; Table.I plain; Table.I aware; Table.F (cost plain); Table.F (cost aware);
           Table.F (storage plain); Table.F (storage aware) ]))

let all =
  List.map
    (fun (id, title, columns, rows) ->
      ( id,
        title,
        fun ctx ->
          let table = Table.create ~title ~columns in
          List.iter (Table.add_row table) (rows ctx);
          table ))
    [ ( "ft-exact",
        "Ablation: greedy (Appendix A) vs exact fault tolerance (n=8, h=40)",
        [ "strategy"; "t"; "greedy mean"; "exact mean"; "mean gap"; "max gap" ],
        ft_exact );
      ( "delete-policy",
        "Ablation: RandomServer-20 deletes, cushion vs replacement (Section 5.3)",
        [ "policy"; "msgs/update"; "unfairness after"; "mean occupancy" ],
        delete_policy );
      ( "coord-load",
        "Ablation: update-traffic concentration (Section 6.3 coordinator bottleneck)",
        [ "strategy"; "msgs total"; "server-0 share %"; "peak/avg"; "load cov" ],
        coord_load );
      ( "coord-replicas",
        "Ablation: RoundRobin-2 coordinator replication (footnote 1), churn mttf=50 mttr=50",
        [ "replicas"; "msgs/update (no churn)"; "updates accepted % (churn)" ],
        coord_replicas );
      ( "hash-y",
        "Ablation: Hash-y sizing at t=40, n=10 (paper rule vs collision-aware)",
        [ "h"; "y paper"; "y aware"; "cost paper"; "cost aware"; "storage paper";
          "storage aware" ],
        hash_y ) ]
