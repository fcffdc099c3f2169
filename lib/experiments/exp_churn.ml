open Plookup
open Plookup_store
open Plookup_util
module Engine = Plookup_sim.Engine

let id = "churn"

let title =
  "Extension: self-healing under churn, repair off vs on (mttf=50, mttr=50, t=40)"

type tally = {
  mutable lookups : int;
  mutable satisfied : int;  (* >= t *live* entries returned *)
  mutable stale : int;  (* deleted entries returned, total *)
  mutable below_target : int;  (* samples with live coverage < t *)
  mutable contacts : int;
}

let n = 10
let h = 100
let budget = 200
let t = 40
let update_every = 10.

(* One churn run of one strategy: the churn drill with one lookup per
   time unit. *)
let run_strategy ctx ~obs ~mttf ~mttr ~horizon ~repair config =
  let d =
    Churn_drill.start ctx ~obs ~n ~h ~mttf ~mttr ~horizon ~update_every ~repair config
  in
  let cluster = Service.cluster d.service in
  let tally = { lookups = 0; satisfied = 0; stale = 0; below_target = 0; contacts = 0 } in
  (* Live entries held by some up server, each counted once: an id is
     counted the first time a lookup's scan meets it, and [seen] records
     that lookup's stamp. *)
  let seen = Array.make (Array.length d.live) 0 in
  let live_coverage stamp =
    let count = ref 0 in
    List.iter
      (fun s ->
        Server_store.iter
          (fun e ->
            let id = Entry.id e in
            if seen.(id) <> stamp then begin
              seen.(id) <- stamp;
              if d.live.(id) then incr count
            end)
          (Cluster.store cluster s))
      (Cluster.up_servers cluster);
    !count
  in
  let count p l = List.length (List.filter p l) in
  for i = 1 to int_of_float horizon do
    let now = float_of_int i in
    ignore
      (Engine.schedule_at d.engine ~time:now (fun _ ->
           let r = Service.partial_lookup d.service t in
           tally.lookups <- tally.lookups + 1;
           let returned = r.Lookup_result.entries in
           if count (fun e -> d.live.(Entry.id e)) returned >= t then
             tally.satisfied <- tally.satisfied + 1;
           tally.stale <-
             tally.stale + count (fun e -> d.deleted_at.(Entry.id e) <= now) returned;
           tally.contacts <- tally.contacts + r.Lookup_result.servers_contacted;
           (* The doc'd metric: how often the system as a whole could not
              have served t live entries no matter how many servers a
              client contacted. *)
           if live_coverage i < t then tally.below_target <- tally.below_target + 1))
  done;
  ignore (Engine.run ~until:horizon d.engine);
  let rep = Service.repair d.service in
  (tally, Option.map Repair.stats rep, Option.map Repair.repair_messages rep)

let run ctx =
  let mttf = Option.value ctx.Ctx.mttf ~default:50. in
  let mttr = Option.value ctx.Ctx.mttr ~default:50. in
  let horizon = Option.value ctx.Ctx.horizon ~default:5000. in
  let horizon = float_of_int (Ctx.scaled ctx (int_of_float horizon)) in
  let repair_cfg = ctx.Ctx.repair in
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
         run_strategy ctx ~obs ~mttf ~mttr ~horizon ~repair config))
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
