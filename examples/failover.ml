(* Failover drill: how each strategy degrades as servers die.

   Act 1 places 100 entries on 10 servers at a common storage budget,
   then kills servers one at a time — first randomly, then adversarially
   (the Appendix-A greedy order) — and watches whether a client needing
   t = 25 entries is still served.

   Act 2 turns the self-healing layer on: a server fails, updates land
   while it is down, and the recovery digest sync brings it back without
   a single stale read.

   Run with: dune exec examples/failover.exe *)

open Plookup
open Plookup_store
open Plookup_util
module Metrics = Plookup_metrics

let n = 10
let h = 100
let budget = 200


let strategies = Service.all_configs ~budget ~n ~h ()

let fresh config =
  let service = Service.create ~seed:11 ~n config in
  Service.place service (Entry.Gen.batch (Entry.Gen.create ()) h);
  service

let drill ~order ~target config =
  let service = fresh config in
  let cluster = Service.cluster service in
  let victims =
    match order with
    | `Random ->
      let rng = Rng.create 5 in
      Array.to_list (Rng.perm rng n)
    | `Adversarial ->
      let placement = Metrics.Fault_tolerance.snapshot cluster ~capacity:h in
      Metrics.Fault_tolerance.greedy_failure_order placement
  in
  let survived = ref 0 in
  let alive = ref true in
  List.iteri
    (fun i victim ->
      if !alive then begin
        Cluster.fail cluster victim;
        let r = Service.partial_lookup service target in
        if Lookup_result.satisfied r then survived := i + 1 else alive := false
      end)
    victims;
  !survived

let analytic_tolerance config ~t =
  match (Service.kind config, Service.params config) with
  | "FullReplication", _ -> string_of_int (Metrics.Analytic.fault_tolerance_full ~n)
  | "Fixed", [ x ] -> string_of_int (Metrics.Analytic.fault_tolerance_fixed ~n ~x ~t)
  | ("RoundRobin" | "RoundRobinHA"), y :: _ ->
    string_of_int (Metrics.Analytic.fault_tolerance_round_robin ~n ~h ~y ~t)
  | _ -> "(simulation only)"

let () =
  Format.printf "failover drill: %d entries, %d servers, storage budget %d@." h n budget;
  List.iter
    (fun target ->
      Format.printf "@.target answer size %d:@." target;
      Format.printf "  %-18s %-22s %-22s %s@." "strategy" "greedy-kill survived"
        "analytic tolerance" "lookup cost after 3 kills";
      List.iter
        (fun config ->
          let adversarial = drill ~order:`Adversarial ~target config in
          (* Cost of lookups when 3 arbitrary servers are down. *)
          let service = fresh config in
          let cluster = Service.cluster service in
          List.iter (Cluster.fail cluster) [ 1; 4; 7 ];
          let m = Metrics.Lookup_cost.measure service ~t:target ~lookups:500 in
          Format.printf "  %-18s %-22d %-22s %.2f (fail %.1f%%)@."
            (Service.config_name config)
            adversarial
            (analytic_tolerance config ~t:target)
            m.Metrics.Lookup_cost.mean_cost
            (100. *. m.Metrics.Lookup_cost.failure_rate))
        strategies)
    [ 18; 35 ];
  Format.printf
    "@.at t=18 Fixed-20 shrugs off failures (every server is identical); at t=35 it@.\
     cannot answer at all (coverage 20), while the partitioned strategies keep@.\
     serving but tolerate fewer adversarial kills — Fig. 7 of the paper, live.@.";
  (* Act 2: the same outage with the repair layer on.  Server 2 misses a
     delete and an add while down; without repair it would serve the
     deleted entry forever.  The recovery sync retracts it and ships the
     add, so the first lookup after recovery is already clean. *)
  Format.printf "@.self-healing drill (repair=full):@.";
  List.iter
    (fun config ->
      let service =
        Service.create ~seed:11 ~repair:Repair.default_config ~n config
      in
      let gen = Entry.Gen.create () in
      let batch = Entry.Gen.batch gen h in
      Service.place service batch;
      let cluster = Service.cluster service in
      Cluster.fail cluster 2;
      let victim = List.hd batch in
      Service.delete service victim;
      Service.add service (Entry.Gen.fresh gen);
      Cluster.recover cluster 2;
      let stale = ref 0 in
      for _ = 1 to 200 do
        let r = Service.partial_lookup service 25 in
        if List.exists (Entry.equal victim) r.Lookup_result.entries then incr stale
      done;
      let stats = Option.get (Service.repair service) |> Repair.stats in
      Format.printf "  %-18s stale reads after recovery: %d (sync shipped %d, retracted %d)@."
        (Service.config_name config)
        !stale stats.Repair.entries_shipped stats.Repair.entries_retracted)
    strategies
