(** Figure 7: worst-case fault tolerance (Appendix-A greedy heuristic)
    vs target answer size, at the shared 200-entry storage budget:
    RandomServer-20 tolerates the most, Round-2 loses one server of
    tolerance per h/n of target size, Hash-2 traces an S-shaped
    decline. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget=200, targets 10..50 step 5, each row seeded by
    its target. *)
