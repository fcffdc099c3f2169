(** Table 1: storage cost for managing h entries on n servers —
    the closed forms next to measured placements. *)

val id : string
val title : string
val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budget=200: the configuration every static figure in
    the paper uses (Fixed-20, RandomServer-20, Round-2, Hash-2). *)
