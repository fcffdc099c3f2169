(** Table 2: the paper's informal star-rating summary, regenerated as a
    measured scorecard.  Every cell of the paper's table is backed here
    by a number from the canonical configuration (100 entries, 10
    servers, storage budget 200, target 35): storage, coverage, greedy
    fault tolerance, lookup cost, static unfairness, and update overhead
    in messages per update over a steady-state stream.  {!paper_stars}
    reproduces the published qualitative ratings for side-by-side
    comparison. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t

val run_full : Ctx.t -> Plookup_util.Table.t * Plookup_util.Table.t
(** The measured scorecard plus a second table of star ranks derived
    from it by ranking the four partial strategies per metric (4 stars =
    best, ties share the better rank) — the regenerated Table 2,
    comparable against {!paper_stars}. *)

val paper_stars : Plookup_util.Table.t
(** The verbatim ratings of the paper's Table 2 (4 stars = best). *)
