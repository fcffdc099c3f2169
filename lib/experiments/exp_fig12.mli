(** Figure 12: Fixed-x cushion sizing.  With x = t + b, the share of
    simulated time during which a lookup for t = 15 of the 100
    steady-state entries would fail, versus cushion b, for exponential
    and Zipf-like entry lifetimes.  The failure share decays roughly
    exponentially in b; the tail-heavy Zipf lifetimes taper off. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, t=15, cushions 0..7, 20000 updates per run (the
    paper's Fig. 12 protocol). *)
