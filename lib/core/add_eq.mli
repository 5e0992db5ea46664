(** Bilateral Add Equilibrium (BAE): no two agents both improve by jointly
    creating their missing edge.  Exact; uses the closed-form gain
    [Σ_x max 0 (d(u,x) − (1 + d(v,x)))] on one APSP, so a full check is
    [O(n³)] even on large constructions.  The metric's gain test is a
    prune: a pair that passes it is priced exactly before it is
    reported.

    Functorized over the cost kernel; the top-level entry points are the
    [Cost.Metric] specialisation (bit-identical to the pre-functor
    checker). *)

module Make (M : Metric_sig.METRIC) : sig
  val check : alpha:float -> Graph.t -> Verdict.t
  val check_oracle : alpha:float -> Graph.t -> Dist_oracle.t -> Verdict.t
  val is_stable : alpha:float -> Graph.t -> bool
end

val check : alpha:float -> Graph.t -> Verdict.t
(** [check ~alpha g] never answers [Exhausted]. *)

val check_oracle : alpha:float -> Graph.t -> Dist_oracle.t -> Verdict.t
(** [check_oracle ~alpha g o] is [check] reading its distance rows from
    [o], which must be an oracle for [g]; [o] is returned in its original
    state.  Bit-identical to [check]; the point is sharing a warmed row
    cache. *)

val is_stable : alpha:float -> Graph.t -> bool
