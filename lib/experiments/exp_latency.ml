open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine

let id = "latency"
let title = "Extension: lookup latency on a simulated network (Async_client)"

let n = 10
let h = 100
let budget = 200
let t = 35
let rtt_lo = 5.
let rtt_hi = 50.
let timeout = 2. *. rtt_hi

type row = {
  contacts : Stats.Accum.t;
  timeouts : Stats.Accum.t;
  latencies : float array;
}

(* [order_rng] draws the probe orders; without one they come from the
   cluster's own generator. *)
let measure_config ctx ~lookups ~obs ~config ?order_rng ~wave_of ~down () =
  let service = Service.create ~seed:(Ctx.run_seed ctx 1) ~obs ~n config in
  Service.place service (Entry.Gen.batch (Entry.Gen.create ()) h);
  let cluster = Service.cluster service in
  let discipline = Service.discipline service in
  let order_rng = Option.value order_rng ~default:(Cluster.rng cluster) in
  Ctx.apply_faults ctx cluster;
  List.iter (Cluster.fail cluster) down;
  let engine = Engine.create () in
  Plookup_net.Net.attach_engine (Cluster.net cluster) engine;
  let latency_rng = Rng.create (Ctx.run_seed ctx 2) in
  (* One hop is half a round trip. *)
  let latency () = Dist.uniform_in latency_rng ~lo:(rtt_lo /. 2.) ~hi:(rtt_hi /. 2.) in
  let contacts = Stats.Accum.create () in
  let timeouts = Stats.Accum.create () in
  let latencies =
    Array.init lookups (fun _ ->
        let outcome = ref None in
        Async_client.lookup cluster engine ~latency ~timeout
          ~order:(Probe.order_list discipline order_rng ~n)
          ~wave:(wave_of ()) ~t
          (fun o -> outcome := Some o);
        ignore (Engine.run engine);
        match !outcome with
        | Some o ->
          Stats.Accum.add contacts
            (float_of_int o.Async_client.result.Lookup_result.servers_contacted);
          Stats.Accum.add timeouts (float_of_int o.Async_client.timeouts);
          Async_client.elapsed o
        | None -> nan)
  in
  { contacts; timeouts; latencies }

let run ctx =
  let lookups = Ctx.scaled ctx 2000 in
  let table =
    Table.create ~title
      ~columns:
        [ "client";
          "mean contacts";
          "mean latency ms";
          "p95 latency ms";
          "p99 latency ms";
          "timeouts/lookup" ]
  in
  let record name row =
    Table.add_row table
      [ Table.S name;
        Table.F (Stats.Accum.mean row.contacts);
        Table.F (Stats.mean row.latencies);
        Table.F (Stats.percentile row.latencies 95.);
        Table.F (Stats.percentile row.latencies 99.);
        Table.F4 (Stats.Accum.mean row.timeouts) ]
  in
  let y =
    Option.value ~default:1
      (Service.param (Service.storage_for_budget (Service.round_robin 1) ~n ~h ~total:budget))
  in
  let measure = measure_config ctx ~lookups in
  (* Each strided client row owns its probe-order rng, seeded from the
     row's position, so rows are independent parallel units. *)
  let row_rng row = Rng.create (Ctx.run_seed ctx (3 + row)) in
  (* The parallel client: wave size ceil(t*n/(y*h)), known in advance
     (Section 3.5). *)
  let wave = min n (max 1 (((t * n) + (y * h) - 1) / (y * h))) in
  let rows =
    [| ( "FullReplication (1 contact)",
         fun ~obs ->
           measure ~obs ~config:Service.full_replication
             ~wave_of:(fun () -> 1)
             ~down:[] () );
       ( "RandomServer-20 sequential",
         fun ~obs ->
           measure ~obs
             ~config:
               (Service.storage_for_budget (Service.random_server 1) ~n ~h ~total:budget)
             ~wave_of:(fun () -> 1)
             ~down:[] () );
       ( "Hash-2 sequential",
         fun ~obs ->
           measure ~obs
             ~config:(Service.storage_for_budget (Service.hash 1) ~n ~h ~total:budget)
             ~wave_of:(fun () -> 1)
             ~down:[] () );
       ( "RoundRobin-2 sequential",
         fun ~obs ->
           measure ~obs ~config:(Service.round_robin y) ~order_rng:(row_rng 0)
             ~wave_of:(fun () -> 1)
             ~down:[] () );
       ( "RoundRobin-2 parallel wave",
         fun ~obs ->
           measure ~obs ~config:(Service.round_robin y) ~order_rng:(row_rng 1)
             ~wave_of:(fun () -> wave)
             ~down:[] () );
       (* Failure masking (Section 6.2): one server down.  The sequential
          client stalls a full timeout whenever the dead server comes up
          in its order; the parallel client's redundant in-flight
          contacts keep it moving and it finishes before the timeout
          even matters. *)
       ( "RoundRobin-2 sequential, server 3 down",
         fun ~obs ->
           measure ~obs ~config:(Service.round_robin y) ~order_rng:(row_rng 2)
             ~wave_of:(fun () -> 1)
             ~down:[ 3 ] () );
       ( "RoundRobin-2 parallel, server 3 down",
         fun ~obs ->
           measure ~obs ~config:(Service.round_robin y) ~order_rng:(row_rng 3)
             ~wave_of:(fun () -> wave)
             ~down:[ 3 ] () ) |]
  in
  let measured =
    Runner.map_obs ctx ~count:(Array.length rows) (fun i ~obs ->
        let name, thunk = rows.(i) in
        (name, thunk ~obs))
  in
  Array.iter (fun (name, row) -> record name row) measured;
  table
