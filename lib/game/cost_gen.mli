(** The generalized BNCG cost model (arXiv 2510.00239) — the
    {!Dist_cost}-parameterized analogue of {!Cost}.

    Agent [u] in graph [g] pays [alpha * deg u] to buy edges plus
    [Dist_cost.eval f (dist (u, v))] for every other vertex [v] the
    function can price; pairs it cannot ([None] — unreachable, or
    beyond a cutoff radius) are counted in {!agent.far} and dominate
    the comparison lexicographically, generalizing the classic cost's
    treatment of disconnection.  With [f = Dist_cost.Linear] every
    function here agrees with its {!Cost} counterpart (same far/
    unreachable count, same money up to float summation order).

    This module is the cost model of the generalized game: cost
    assembly from distance rows, the strict improvement order, and the
    social optimum behind [rho].  {!Metric} packages the first two as
    the {!Metric_sig.METRIC} kernel the bilateral checkers run on. *)

type agent = { far : int; buy : float; fdist : int }
(** [far] pairs the function cannot price (lexicographically first),
    [buy = alpha * degree], [fdist = sum of priced distances]. *)

val money : agent -> float
(** [buy + fdist], the tie-break channel. *)

val compare_agent : agent -> agent -> int
(** Lexicographic: [far] first, then {!money}. *)

val strictly_less : agent -> agent -> bool
(** [compare_agent a b < 0] — "strictly better off". *)

val agent_of_row :
  f:Dist_cost.t -> alpha:float -> degree:int -> self:int -> int array -> agent
(** Price an agent from a BFS distance row ([-1] = unreachable; entry
    [self] is skipped).  Works on [Paths.bfs] and [Dist_oracle.row]
    buffers alike. *)

val agent_cost : f:Dist_cost.t -> alpha:float -> Graph.t -> int -> agent
(** Scratch-BFS pricing — what the definition-literal oracles use. *)

val agent_cost_oracle : f:Dist_cost.t -> alpha:float -> Dist_oracle.t -> int -> agent
(** The same cost off an incremental oracle's cached row: exact across
    edge flips, so checkers can price moves flip / read / unflip. *)

(** The checker kernel for distance-cost function [F.f]: [agent] is
    {!agent}, priced through {!agent_of_row}.  The gain and coalition
    hooks are tied to the linear cost's arithmetic, so this instance
    answers them permissively ([gain_improves] and
    [could_join_coalition] always [true]) and lets exact pricing decide.
    [net_edge_cap] holds for every [f]: an agent with no far pair can
    buy at most [ceil ((fdist − (n − 1)·f 1) / α)] net extra edges. *)
module Metric (F : sig
  val f : Dist_cost.t
end) : Metric_sig.METRIC with type agent = agent

type social = { far_pairs : int; social_buy : float; social_fdist : int }

val social_money : social -> float
val compare_social : social -> social -> int

val social_cost : f:Dist_cost.t -> alpha:float -> Graph.t -> social
(** Sum of {!agent_cost} over all agents (ordered pairs; every edge is
    bought twice, as in the paper). *)

val opt_cost : f:Dist_cost.t -> alpha:float -> int -> social
(** The social optimum on [n] vertices: the lexicographic better of the
    star and the clique.  This is exact for every {!Dist_cost.t} — see
    the exchange-bound argument in the implementation. *)

val rho : f:Dist_cost.t -> alpha:float -> Graph.t -> float
(** Social cost over {!opt_cost}; [infinity] when any pair is far
    (disconnected, or beyond a cutoff radius); [1.] for [n <= 1]. *)
