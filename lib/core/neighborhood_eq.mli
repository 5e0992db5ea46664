(** Bilateral Neighborhood Equilibrium (BNE, Section 1.1): no agent [u]
    can pick sets [R ⊆ S_u] (edges to drop) and [A ⊆ V ∖ S_u] (partners to
    connect to) such that [u] and {e every} agent in [A] strictly benefit.
    This is the bilateral analogue of the unilateral NE.

    The move space around one agent is exponential; the checker is exact
    within an explicit budget and prunes with the paper's own arguments:

    - {b consent bound} (used in Proposition A.5): an agent [v] whose
      one-extra-edge gain bound [Σ_w max 0 (dist(v,w) − 2) + 1] is at most
      [α] never joins [A].  The checker prices it exactly, which holds for
      any metric: [v] never joins [A] unless her cost in
      [G + {u-s : every stranger s}] beats her current cost;
    - {b net-edge cap}: if the move buys [k] more edges than it drops,
      agent [u] needs a distance gain above [k·α], but her gain is at most
      [dist(u) − (n − 1)] (under a distance cost f, her priced distances
      above their floor [(n − 1)·f 1]);
    - {b connectivity} (trees): dropping the edge towards a branch that
      receives no new edge disconnects [u], which can never improve her. *)

val default_budget : int
(** Default number of candidate moves the checker may evaluate
    ([500_000]). *)

exception Out_of_budget

val iter_subsets :
  'a list -> max_size:int -> budget:int ref -> ('a list -> unit) -> unit
(** [iter_subsets items ~max_size ~budget f] calls [f] on every subset of
    [items] with at most [max_size] elements, smallest first and
    lexicographic by position within a size, charging one unit of
    [budget] per call.
    @raise Out_of_budget once [budget] goes negative. *)

(** Functorized over the cost kernel; the top-level entry points are the
    [Cost.Metric] specialisation (bit-identical to the pre-functor
    checker). *)
module Make (M : Metric_sig.METRIC) : sig
  val check : ?budget:int -> alpha:float -> Graph.t -> Verdict.t
  val check_agent : ?budget:int -> alpha:float -> Graph.t -> int -> Verdict.t
  val is_stable_exn : ?budget:int -> alpha:float -> Graph.t -> bool
end

val check : ?budget:int -> alpha:float -> Graph.t -> Verdict.t
(** [check ~alpha g] is [Stable], [Unstable m] with an explicit
    neighborhood move, or [Exhausted] if the pruned move space still
    exceeds [budget]. *)

val is_stable_exn : ?budget:int -> alpha:float -> Graph.t -> bool
(** Like {!check} but raises [Failure] on [Exhausted]. *)

val check_agent : ?budget:int -> alpha:float -> Graph.t -> int -> Verdict.t
(** [check_agent ~alpha g u] restricts the search to moves centred at
    [u]. *)
