(** The generalized bilateral network creation game (arXiv 2510.00239)
    as a {!Game_sig.GAME} instance.

    The state is a plain graph, as in {!Bilateral}; a concept pairs a
    bilateral base concept with a {!Dist_cost} distance-cost function,
    and every deviation is priced through {!Cost_gen}.  Concept names
    are ["BASE@F"] (e.g. ["BNE@d2"], ["RE@cut2"]); a bare bilateral
    name parses with the linear function, recovering the classic
    game's improvement order.

    [RE], [BAE], [PS], [BSwE], [BGE] and [BNE] run on the bilateral
    checkers ([*.Make]) instantiated with {!Cost_gen.Metric}.  That
    metric answers the linear gain and coalition hooks permissively, so
    the accelerations that apply are those sound for every
    non-decreasing distance cost: bitgraph and incremental
    {!Dist_oracle} pricing, the cross-component BAE shortcut, and BNE's
    exact consent prune, net-edge cap, single-removal shortcut and
    tree-branch prune.  [k-BSE] and [BSE] keep a coalition-first search
    of their own: [Strong_eq.Make] over this metric is 5-55x slower.
    [BNE], [k-BSE] and [BSE] are budgeted and may answer [Exhausted];
    the rest are exact and polynomial. *)

type concept = { f : Dist_cost.t; base : Concept.t }

include
  Game_sig.GAME with type state = Graph.t and type concept := concept
