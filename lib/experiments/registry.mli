(** The catalogue of reproducible tables and figures. *)

type t = {
  id : string;  (** e.g. ["fig4"] — the CLI / bench name *)
  title : string;
  run : Ctx.t -> Plookup_util.Table.t;
}

val all : t list
(** In paper order: table1, fig4, fig6, fig7, fig9, fig12, fig13,
    fig14, table2; then the extension studies hotspot, churn, latency,
    loss and day (EXPERIMENTS.md, "Extensions beyond the paper"); then
    the ablations ft-exact, delete-policy, coord-load, coord-replicas
    and hash-y ({!Exp_ablation}). *)

val find : string -> t option
val ids : unit -> string list
