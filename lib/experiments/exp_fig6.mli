(** Figure 6: maximum coverage vs total storage budget (100 entries, 10
    servers, budget swept 10..200).  Round-y/Hash-y climb linearly to
    complete coverage at budget h; Fixed-x's coverage is x = budget/n;
    RandomServer-x follows the inverted exponential
    h*(1-(1-x/h)^n). *)

val id : string
val title : string

val run : Ctx.t -> Plookup_util.Table.t
(** n=10, h=100, budgets 10..200 step 10, each row seeded by its
    budget. *)
