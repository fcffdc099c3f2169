(** The deterministic Monte-Carlo fan-out shared by every experiment.

    All parallelism in the reproduction flows through these two
    functions, and both enforce the determinism contract documented in
    DESIGN.md ("Parallelism"):

    - each unit of work is a self-contained closure of its index — it
      derives any randomness from a seed that is a pure function of the
      index (usually {!Ctx.run_seed}) and touches no state shared with
      other units;
    - results come back as an array {e indexed by input position}, and
      callers aggregate by walking that array in order.

    Together these make every experiment's output byte-identical at any
    [ctx.jobs] value: scheduling only changes {e when} a replicate
    runs, never what it computes nor the order it is folded in. *)

val map : Ctx.t -> count:int -> (int -> 'a) -> 'a array
(** [map ctx ~count f] is [| f 0; f 1; ...; f (count-1) |], computed by
    up to [ctx.jobs] workers ({!Plookup_util.Pool.map}).
    Use this when the experiment derives its own composite seed from
    the index. *)

val map_obs : Ctx.t -> count:int -> (int -> obs:Plookup_obs.Obs.t -> 'a) -> 'a array
(** {!map}, with observability threaded: each unit receives a fresh
    child of [ctx.obs] (pass it to the services it builds — workers
    never share mutable metric cells), and every child is merged back
    into [ctx.obs] in input order once all units finish.  Registry
    snapshot and trace contents are therefore byte-identical at any
    [ctx.jobs]. *)

val replicates_obs : Ctx.t -> count:int -> (seed:int -> obs:Plookup_obs.Obs.t -> 'a) -> 'a array
(** [replicates_obs ctx ~count f] runs [count] Monte-Carlo replicates
    through {!map_obs}, handing replicate [i] (1-based, matching the
    historical [for run = 1 to runs] loops) the seed
    [Ctx.run_seed ctx i]. *)

val mean_of : float array -> float
(** Left-to-right mean of the samples ({!Plookup_util.Stats.Accum}) —
    the ordered aggregation for the common "average the replicates"
    case. *)
