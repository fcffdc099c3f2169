open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine
module Churn = Plookup_workload.Churn

let id = "churn"

let title =
  "Extension: self-healing under churn, repair off vs on (mttf=50, mttr=50, t=40)"

type tally = {
  mutable lookups : int;
  mutable satisfied : int;  (* >= t *live* entries returned *)
  mutable stale : int;  (* deleted entries returned, total *)
  mutable below_target : int;  (* samples with live coverage < t *)
  mutable contacts : int;
  mutable up_samples : int;
}

(* One churn run of one strategy: h entries placed, servers failing and
   recovering, a steady-state update stream (each update deletes one
   random live entry and adds a fresh one), one lookup per time unit.
   The updates are what make recovery visible: a server that was down
   missed deletes (it will serve stale reads) and adds (it degrades
   success) until the repair layer reconciles it. *)
let run_strategy ctx ~obs ~n ~h ~t ~mttf ~mttr ~horizon ~update_every ~repair config =
  let seed = Ctx.run_seed ctx (Hashtbl.hash (Service.config_name config)) in
  let service = Service.create ~seed ~obs ~repair ~n config in
  let gen = Entry.Gen.create () in
  let initial = Entry.Gen.batch gen h in
  Service.place service initial;
  let cluster = Service.cluster service in
  let engine = Engine.create () in
  Plookup_net.Net.attach_engine (Cluster.net cluster) engine;
  (match Service.repair service with
  | Some rep -> Repair.attach_engine ~until:horizon rep engine
  | None -> ());
  let churn_events =
    Churn.generate (Rng.create (seed lxor 0xC0FFEE)) ~n ~mttf ~mttr ~horizon
  in
  Churn.drive engine
    ~apply:(fun ev ->
      if ev.Churn.up then Cluster.recover cluster ev.Churn.server
      else Cluster.fail cluster ev.Churn.server)
    churn_events;
  (* The experiment's own ground truth of what is alive.  Entry ids are
     issued sequentially by [Entry.Gen], so a Fenwick tree over the id
     space gives the uniform victim pick by rank — the k-th smallest
     live id, exactly what sorting the table and indexing used to
     produce — in O(log ids) per update instead of an O(h log h) sort. *)
  let live = Hashtbl.create (2 * h) in
  let ids = h + int_of_float (horizon /. update_every) + 1 in
  let live_fen = Fenwick.create ids in
  let live_add e =
    Hashtbl.replace live (Entry.id e) e;
    Fenwick.add live_fen (Entry.id e) 1
  in
  let live_remove id =
    Hashtbl.remove live id;
    Fenwick.add live_fen id (-1)
  in
  List.iter live_add initial;
  let deleted = Hashtbl.create 64 in
  let wl_rng = Rng.create (seed lxor 0xBEEF) in
  for k = 1 to int_of_float (horizon /. update_every) do
    ignore
      (Engine.schedule_at engine
         ~time:((float_of_int k *. update_every) +. 0.25)
         (fun _ ->
           (* A client whose update gets no reply (coordinator down, or
              no server up) fails fast; the update never happened. *)
           if Service.can_update service then begin
           match Fenwick.total live_fen with
           | 0 -> ()
           | alive ->
             let victim_id = Fenwick.select live_fen (Rng.int wl_rng alive) in
             let victim = Hashtbl.find live victim_id in
             Service.delete service victim;
             live_remove victim_id;
             Hashtbl.replace deleted victim_id ();
             let fresh = Entry.Gen.fresh gen in
             Service.add service fresh;
             live_add fresh
           end))
  done;
  let tally =
    { lookups = 0; satisfied = 0; stale = 0; below_target = 0; contacts = 0; up_samples = 0 }
  in
  (* Live entries held by some up server, each counted once: an id is
     counted the first time a lookup's scan meets it, and [seen] records
     that lookup's stamp. *)
  let seen = Array.make ids 0 in
  let live_coverage stamp =
    let count = ref 0 in
    List.iter
      (fun s ->
        Server_store.iter
          (fun e ->
            let id = Entry.id e in
            if seen.(id) <> stamp then begin
              seen.(id) <- stamp;
              if Hashtbl.mem live id then incr count
            end)
          (Cluster.store cluster s))
      (Cluster.up_servers cluster);
    !count
  in
  for i = 1 to int_of_float horizon do
    ignore
      (Engine.schedule_at engine ~time:(float_of_int i) (fun _ ->
           let r = Service.partial_lookup service t in
           tally.lookups <- tally.lookups + 1;
           let returned = r.Lookup_result.entries in
           let live_returned =
             List.length (List.filter (fun e -> Hashtbl.mem live (Entry.id e)) returned)
           in
           if live_returned >= t then tally.satisfied <- tally.satisfied + 1;
           tally.stale <-
             tally.stale
             + List.length (List.filter (fun e -> Hashtbl.mem deleted (Entry.id e)) returned);
           tally.contacts <- tally.contacts + r.Lookup_result.servers_contacted;
           tally.up_samples <- tally.up_samples + Cluster.up_count cluster;
           (* The doc'd metric: how often the system as a whole could not
              have served t live entries no matter how many servers a
              client contacted. *)
           if live_coverage i < t then tally.below_target <- tally.below_target + 1))
  done;
  ignore (Engine.run ~until:horizon engine);
  (tally, Option.map Repair.stats (Service.repair service), Option.map Repair.repair_messages (Service.repair service))

let run ?(n = 10) ?(h = 100) ?(budget = 200) ?(t = 40) ?(mttf = 50.) ?(mttr = 50.)
    ?(horizon = 5000.) ?(update_every = 10.) ctx =
  let mttf = Option.value ctx.Ctx.mttf ~default:mttf in
  let mttr = Option.value ctx.Ctx.mttr ~default:mttr in
  let horizon = Option.value ctx.Ctx.horizon ~default:horizon in
  let horizon = float_of_int (Ctx.scaled ctx (int_of_float horizon)) in
  let repair_cfg = Option.value ctx.Ctx.repair ~default:Repair.default_config in
  let table_title =
    Printf.sprintf
      "Extension: self-healing under churn, repair off vs on (mttf=%g, mttr=%g, t=%d)"
      mttf mttr t
  in
  let table =
    Table.create ~title:table_title
      ~columns:
        [ "strategy";
          "repair";
          "success %";
          "stale reads";
          "below-t %";
          "mean cost";
          "restore time";
          "repair msgs" ]
  in
  let configs =
    (* Every registered strategy at the common storage budget, so a
       newly registered strategy joins the churn drill automatically.
       Fixed-x is overridden: it needs x >= t to play at all (plus a
       little headroom). *)
    List.map
      (fun config ->
        if Service.kind config = "Fixed" then Service.fixed (t + 5) else config)
      (Service.all_configs ~budget ~n ~h ())
  in
  (* One parallel unit per (strategy, repair mode) cell; each cell's
     seed derives from the strategy name alone, so cells are
     order-independent and rows are added back in the historical order. *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun config ->
           (config, Repair.disabled)
           ::
           (if repair_cfg.Repair.mode <> Repair.Off then [ (config, repair_cfg) ] else []))
         configs)
  in
  let measured =
    Runner.map_obs ctx ~count:(Array.length cells)
      (fun i ~obs ->
        let config, repair = cells.(i) in
        (config, repair,
         run_strategy ctx ~obs ~n ~h ~t ~mttf ~mttr ~horizon ~update_every ~repair config))
  in
  Array.iter
    (fun (config, repair, (tally, stats, repair_msgs)) ->
      let per_lookup v = float_of_int v /. float_of_int (max 1 tally.lookups) in
      Table.add_row table
        [ Table.S (Service.config_name config);
          Table.S (Repair.mode_name repair.Repair.mode);
          Table.F (100. *. per_lookup tally.satisfied);
          Table.I tally.stale;
          Table.F (100. *. per_lookup tally.below_target);
          Table.F (per_lookup tally.contacts);
          (match stats with
          | Some { Repair.mean_restore_time = Some rt; _ } -> Table.F rt
          | Some { Repair.mean_restore_time = None; _ } | None -> Table.S "-");
          Table.I (Option.value repair_msgs ~default:0) ])
    measured;
  table
