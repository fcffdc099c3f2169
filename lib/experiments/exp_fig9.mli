(** Figure 9: unfairness (coefficient of variation of per-entry return
    probability, Eq. 1) vs total storage, for RandomServer-x and Hash-y
    at target answer size 35.  RandomServer's unfairness decays in two
    phases (coverage-limited, then single-server); Hash's *rises* as
    growing storage stops masking the hash functions' placement bias,
    then declines only slightly.

    Note (also EXPERIMENTS.md): the empirical estimator has a Monte-
    Carlo noise floor of about sqrt((1-p)/(m*p)) with p = t/h and m
    lookups per instance — the paper's own m = 10000 floors near 0.014,
    which is visible in its smallest reported values. *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, t=35, budgets 100..1000 step 100, each row seeded by
    its budget. *)
