(** Extension: self-healing under continuous server churn.

    Servers fail and recover as alternating renewal processes
    (exponential MTTF/MTTR); clients keep issuing partial lookups
    throughout while a steady-state update stream deletes one random
    live entry and adds a fresh one ({!Churn_drill}) — so a recovering
    server that missed updates serves stale reads and hides adds until
    it is repaired.

    Each strategy runs twice, with repair off and with the context's
    repair configuration (default {!Plookup.Repair.default_config}),
    and reports: lookup success rate counting only {e live} entries,
    stale reads (deleted entries returned), the fraction of samples in
    which the whole system covered fewer than [t] live entries, mean
    lookup cost, mean time-to-restore-degree, and the repair message
    overhead (tallied separately from the lookup/update cost). *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget 200 (Fixed gets x = t+5 instead — it cannot
    play otherwise), t=40, one lookup per time unit and one delete+add
    every 10 ({!Churn_drill}).  Churn is harsh by default: mttf=mttr=50
    (each server 50% available), over a horizon of 5000 time units
    times the context's scale.  The context's [mttf]/[mttr]/[horizon]/
    [repair] fields override those defaults. *)
