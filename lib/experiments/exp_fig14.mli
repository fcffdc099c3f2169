(** Figure 14: total update overhead (messages received by servers) for
    Fixed-50 vs Hash-y over 20000 updates, as the steady-state entry
    count h sweeps 100..400 with target answer size 40.

    Fixed-x's cost falls like 1 + (x/h)*n per update (fewer updates
    touch the tracked subset as h grows); Hash-y's cost is 1 + y per
    update with y = ceil(t*n/h) stepping down at h = 134, 200, 400 — the
    two curves cross near (x/h)*n = y. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, t=40, x=50, h in {100,120,133,150,175,200,250,300,350,400},
    20000 updates. *)
