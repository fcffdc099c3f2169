(** Figure 4: client lookup cost vs target answer size, with a fixed
    total storage budget (200 entries for 100 entries on 10 servers, so
    Round-2, RandomServer-20 and Hash-2 are comparable; Fixed-20 is
    omitted because it cannot answer targets above 20). *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget=200, targets 10..50 step 5, each row seeded by
    its target.  Columns: t, measured Round cost, analytic Round cost,
    then measured mean cost per strategy and Hash's failure rate. *)
