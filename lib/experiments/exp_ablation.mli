(** Ablations: the side studies behind the paper's design choices, each
    a registered experiment ({!Registry}).

    - [ft-exact]: Appendix A's greedy adversary against the exact
      minimum breaking set, on real placements (n=8, h=40, t=10 and 20);
    - [delete-policy]: Section 5.3's cushion deletes against active
      replacement for RandomServer-20;
    - [coord-load]: Section 6.3's coordinator bottleneck, as the share of
      update traffic server 0 receives;
    - [coord-replicas]: footnote 1's replicated Round-Robin coordinator:
      update cost, and adds accepted while every server churns;
    - [hash-y]: Hash-y sizing, the paper's y = ceil(tn/h) against the
      collision-aware choice (t=40, n=10).

    Replicates, updates and lookups scale with the context; the sizes
    named above do not. *)

val all : (string * string * (Ctx.t -> Plookup_util.Table.t)) list
(** [(id, title, run)] for each ablation, in registry order. *)
