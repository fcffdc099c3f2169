open Plookup
module Storage = Plookup_metrics.Storage
module Analytic = Plookup_metrics.Analytic

let test_measured_matches_analytic_deterministic () =
  (* Every strategy whose Table-1 formula is exact, at budgets that give
     x < h and x > h: measured == closed form.  Hash-y's formula is an
     expected value (see its 60-seed mean test). *)
  List.iter
    (fun (n, h, budget) ->
      List.iter
        (fun config ->
          if Service.kind config <> "Hash" then begin
            let service, _ = Helpers.placed_service ~n ~h config in
            Helpers.close
              (Printf.sprintf "%s at n=%d h=%d" (Service.config_name config) n h)
              (Analytic.storage config ~n ~h)
              (float_of_int (Storage.measured (Service.cluster service)))
          end)
        (Service.all_configs ~ablations:true ~budget ~n ~h ()))
    [ (10, 100, 200); (10, 100, 2000); (5, 20, 40) ]

let test_per_server () =
  let service, _ = Helpers.placed_service ~n:4 ~h:8 (Service.round_robin 1) in
  Alcotest.(check (list int)) "balanced" [ 2; 2; 2; 2 ]
    (Array.to_list (Storage.per_server (Service.cluster service)))

let test_imbalance () =
  let round, _ = Helpers.placed_service ~n:10 ~h:100 (Service.round_robin 2) in
  Alcotest.(check bool) "round balanced within y" true
    (Storage.imbalance (Service.cluster round) <= 2);
  let fixed, _ = Helpers.placed_service ~n:10 ~h:100 (Service.fixed 20) in
  Helpers.check_int "fixed perfectly balanced" 0 (Storage.imbalance (Service.cluster fixed))

let test_counts_failed_servers () =
  let service, _ = Helpers.placed_service ~n:4 ~h:8 Service.full_replication in
  let cluster = Service.cluster service in
  Cluster.fail cluster 0;
  Helpers.check_int "storage unchanged by failure" 32 (Storage.measured cluster)

let prop_measured_is_sum_of_per_server =
  Helpers.qcheck "measured = sum(per_server)"
    QCheck2.Gen.(int_range 1 40)
    (fun h ->
      let service, _ = Helpers.placed_service ~n:5 ~h (Service.hash 2) in
      let cluster = Service.cluster service in
      Storage.measured cluster
      = Array.fold_left ( + ) 0 (Storage.per_server cluster))

let () =
  Helpers.run "storage_metric"
    [ ( "storage",
        [ Alcotest.test_case "measured = analytic" `Quick
            test_measured_matches_analytic_deterministic;
          Alcotest.test_case "per_server" `Quick test_per_server;
          Alcotest.test_case "imbalance" `Quick test_imbalance;
          Alcotest.test_case "failed servers counted" `Quick test_counts_failed_servers;
          prop_measured_is_sum_of_per_server ] ) ]
