open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine
module Net = Plookup_net.Net

let id = "loss"
let title = "Extension: lookup cost and coverage vs message loss (retrying Async_client)"

let n = 10
let h = 100
let budget = 200
let t = 35
let timeout = 60.
let retries = 2

type tally = {
  satisfied : Stats.Accum.t;
  contacts : Stats.Accum.t;
  attempts : Stats.Accum.t;
  retries : Stats.Accum.t;
  timeouts : Stats.Accum.t;
  latency_ms : Stats.Accum.t;
}

(* One (strategy, loss-rate) cell: a fresh placement, a fault-injected
   network, [lookups] retrying async lookups. *)
let measure ctx ~obs ~lookups ~loss ~config =
  let seed = Ctx.run_seed ctx (Hashtbl.hash (Service.config_name config)) in
  let service = Service.create ~seed ~obs ~n config in
  Service.place service (Entry.Gen.batch (Entry.Gen.create ()) h);
  let cluster = Service.cluster service in
  (* The jitter knob rides on the ambient context (default 0); loss is
     what this experiment sweeps. *)
  Cluster.set_faults cluster ~loss ~duplication:ctx.Ctx.duplication
    ~jitter:ctx.Ctx.jitter ();
  let engine = Engine.create () in
  Net.attach_engine (Cluster.net cluster) engine;
  let latency_rng = Rng.create (seed lxor 0x10552) in
  let latency () = Dist.uniform_in latency_rng ~lo:2.5 ~hi:25. in
  let discipline = Service.discipline service in
  let order_rng = Rng.create (seed lxor 0x0BDE5) in
  let tally =
    { satisfied = Stats.Accum.create ();
      contacts = Stats.Accum.create ();
      attempts = Stats.Accum.create ();
      retries = Stats.Accum.create ();
      timeouts = Stats.Accum.create ();
      latency_ms = Stats.Accum.create () }
  in
  for _ = 1 to lookups do
    let outcome = ref None in
    Async_client.lookup cluster engine ~latency ~timeout ~retries
      ~order:(Probe.order_list discipline order_rng ~n) ~t
      (fun o -> outcome := Some o);
    ignore (Engine.run engine);
    match !outcome with
    | None -> ()
    | Some o ->
      Stats.Accum.add tally.satisfied
        (if Lookup_result.satisfied o.Async_client.result then 1. else 0.);
      Stats.Accum.add tally.contacts
        (float_of_int o.Async_client.result.Lookup_result.servers_contacted);
      Stats.Accum.add tally.attempts (float_of_int o.Async_client.attempts);
      Stats.Accum.add tally.retries (float_of_int o.Async_client.retries);
      Stats.Accum.add tally.timeouts (float_of_int o.Async_client.timeouts);
      Stats.Accum.add tally.latency_ms (Async_client.elapsed o)
  done;
  tally

let loss_rates ctx =
  let base = [ 0.; 0.05; 0.1; 0.2 ] in
  List.sort_uniq compare
    (if ctx.Ctx.loss > 0. then ctx.Ctx.loss :: base else base)

let run ctx =
  let lookups = Ctx.scaled ctx 300 in
  let table =
    Table.create ~title
      ~columns:
        [ "strategy"; "loss %"; "satisfied %"; "mean contacts"; "mean attempts";
          "retries/lookup"; "timeouts/lookup"; "mean latency ms" ]
  in
  let x =
    Option.value ~default:(t + 5)
      (Service.param (Service.storage_for_budget (Service.fixed 1) ~n ~h ~total:budget))
  in
  let y =
    Option.value ~default:1
      (Service.param (Service.storage_for_budget (Service.round_robin 1) ~n ~h ~total:budget))
  in
  (* Fixed-x must hold at least t entries per server to satisfy alone. *)
  let configs = [ Service.fixed (max x (t + 5)); Service.round_robin y ] in
  (* One parallel unit per (strategy, loss rate) cell; each cell's seed
     derives from the strategy name alone, so cells are
     order-independent. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun config -> List.map (fun loss -> (config, loss)) (loss_rates ctx))
         configs)
  in
  let measured =
    Runner.map_obs ctx ~count:(Array.length cells) (fun i ~obs ->
        let config, loss = cells.(i) in
        (config, loss, measure ctx ~obs ~lookups ~loss ~config))
  in
  Array.iter
    (fun (config, loss, tally) ->
      Table.add_row table
        [ Table.S (Service.config_name config);
          Table.F (100. *. loss);
          Table.F (100. *. Stats.Accum.mean tally.satisfied);
          Table.F (Stats.Accum.mean tally.contacts);
          Table.F (Stats.Accum.mean tally.attempts);
          Table.F4 (Stats.Accum.mean tally.retries);
          Table.F4 (Stats.Accum.mean tally.timeouts);
          Table.F (Stats.Accum.mean tally.latency_ms) ])
    measured;
  table
