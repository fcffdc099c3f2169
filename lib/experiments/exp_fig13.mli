(** Figure 13: deterioration of RandomServer-x fairness under updates.
    10 servers each holding at most x = 20 of the ~100 live entries;
    unfairness is re-measured after every block of updates.  Deleted
    entries are replaced (via the reservoir rule) mostly by newer ones,
    biasing lookups toward recent entries: unfairness climbs quickly
    from its static level and then stabilizes.

    The paper does not state the target answer size used here; its
    starting level (~0.5, versus ~0.1 in the static Fig. 9 at the same
    storage) is consistent with single-entry lookups, so t is 1 (see
    EXPERIMENTS.md).  The rising-then-plateau shape is insensitive
    to t. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, x=20, t=1, checkpoints 0..4000 step 500.
    Also reports Fixed-x at the same checkpoints for the Section 6.3
    comparison ("Fixed-x has an unfairness of 2 in this experiment"). *)
