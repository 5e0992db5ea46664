(** Definition-literal reference checkers for differential testing.

    Every checker here is a direct transcription of the deviation
    definitions from Section 1.1 of the paper — persistent {!Graph}
    operations and {!Bncg_game.Cost_gen.agent_cost} only, no Bitgraph,
    no memoisation, no pruning.  Each deviation shape is enumerated
    once, for the generalized game; the bilateral game is its linear
    distance cost.  They are intentionally slow and intentionally
    boring: the fuzz harness ({!Fuzz}) compares their
    verdicts against the optimised checkers behind {!Concept.check} on
    thousands of random instances, so any cleverness that sneaks in
    here would defeat the purpose. *)

val check : ?budget:int -> alpha:float -> Concept.t -> Graph.t -> Verdict.t
(** [check ~alpha concept g] is the bilateral oracle verdict for [g],
    i.e. {!check_generalized} with [~f:Dist_cost.Linear]: [Stable] or
    [Unstable m] with an improving deviation [m] (valid for
    [Move.apply], and genuinely improving per [Move.is_improving]).
    The oracle enumerates exhaustively and never returns [Exhausted];
    [budget] is accepted for signature compatibility and ignored.
    @raise Invalid_argument for coalition concepts ([KBSE _], [BSE])
    when [Graph.n g > 6] — the outcome enumeration is exponential in
    [n (n-1) / 2] and refuses to pretend otherwise. *)

val max_n : Concept.t -> int
(** [max_n concept] is the largest [n] the oracle handles in reasonable
    time: [6] for coalition concepts (hard limit), [9] for [BNE]
    (advisory), unbounded for the single-edge concepts.  Case
    generators use this to cap instance sizes per concept. *)

(** {1 Generalized BNCG oracles}

    The generalized game (arXiv 2510.00239): the bilateral deviation
    vocabulary priced through an arbitrary distance-cost function via
    {!Bncg_game.Cost_gen.agent_cost}.  These are the enumerations behind
    {!check} too. *)

val check_generalized :
  ?budget:int ->
  f:Dist_cost.t ->
  alpha:float ->
  Concept.t ->
  Graph.t ->
  Verdict.t
(** [check_generalized ~f ~alpha base g] is the oracle verdict for the
    generalized game under distance-cost function [f], read at the
    bilateral base concept [base] (the generalized game reuses the
    bilateral deviation structure; only the improvement order changes
    with [f]).  Never returns [Exhausted]; [budget] is ignored.
    @raise Invalid_argument for coalition concepts when [Graph.n g > 6],
    as in {!check}. *)

(** {1 Unilateral NCG oracles}

    Naive counterparts of {!Bncg_game.Unilateral}, returning the same
    result shapes so differential tests can compare [Ok]/[Error]
    outcomes directly (witnesses may differ between implementations). *)

val unilateral_nash : alpha:float -> Strategy.assignment -> (unit, int * int list) result
(** Exhaustive best-response check: every agent, every alternative
    strategy set, graph rebuilt per deviation.
    @raise Invalid_argument if [n > 16]. *)

val unilateral_add_eq : alpha:float -> Strategy.assignment -> (unit, int * int) result
(** Single unilateral edge purchase. *)

val unilateral_remove_eq : alpha:float -> Strategy.assignment -> (unit, int * int) result
(** Single owned-edge deletion. *)

val unilateral_greedy_eq : alpha:float -> Strategy.assignment -> (unit, int * string) result
(** Single owned-edge removal, single addition, or single owned-edge
    swap. *)
