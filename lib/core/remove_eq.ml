(* Dropping an edge saves the remover α and can only increase distances, so
   the move improves agent u iff the graph stays connected from u's view
   and the distance increase is strictly below α.  We evaluate both
   endpoints of every edge with a direct cost comparison.

   Graphs that fit the bit-parallel kernel (n <= Bitgraph.max_n) are
   checked on a single mutable bitgraph — remove, two word-BFS distance
   sums, re-add — with an incremental {!Dist_oracle} above that size.
   Both paths compare the same exact costs in the same edge order, so
   they return identical verdicts and witnesses.

   The algorithm only ever prices agents and compares the results, so it
   is written once against a cost kernel (Metric_sig.METRIC); the
   top-level entry points are the [Cost.Metric] specialisation and are
   bit-identical to the historical hard-coded checker. *)

module Make (M : Metric_sig.METRIC) = struct
  let check_bits ~alpha g =
    let exception Found of Move.t in
    let bg = Bitgraph.of_graph g in
    let size = Graph.n g in
    let before = Array.make (max size 1) None in
    (* agent costs on the intact graph, cached across edges *)
    let before_cost u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = M.of_bits ~alpha bg u in
          before.(u) <- Some c;
          c
    in
    try
      List.iter
        (fun (u, v) ->
          let bu = before_cost u and bv = before_cost v in
          Bitgraph.remove_edge bg u v;
          let try_agent agent b =
            if M.strictly_less (M.of_bits ~alpha bg agent) b then
              raise (Found (Move.Remove { agent; target = (if agent = u then v else u) }))
          in
          try_agent u bu;
          try_agent v bv;
          Bitgraph.add_edge bg u v)
        (Graph.edges g);
      Verdict.Stable
    with Found m -> Verdict.Unstable m

  (* Generic path over a shared distance oracle: remove, two cached
     totals, re-add.  The oracle keeps rows whose distances the removal
     provably cannot change (tightness + alternate-parent tests), so for
     most edges of a large graph neither endpoint pays a BFS.  [oracle]
     must represent [g]; callers such as {!Pairwise} pass one oracle
     through several checkers to share the row cache. *)
  let check_oracle ~alpha g o =
    let exception Found of Move.t in
    let size = Graph.n g in
    let before = Array.make (max size 1) None in
    let before_cost u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = M.of_oracle ~alpha o u in
          before.(u) <- Some c;
          c
    in
    try
      List.iter
        (fun (u, v) ->
          let bu = before_cost u and bv = before_cost v in
          Dist_oracle.remove_edge o u v;
          let try_agent agent b =
            if M.strictly_less (M.of_oracle ~alpha o agent) b then
              raise (Found (Move.Remove { agent; target = (if agent = u then v else u) }))
          in
          try_agent u bu;
          try_agent v bv;
          Dist_oracle.add_edge o u v)
        (Graph.edges g);
      Verdict.Stable
    with Found m -> Verdict.Unstable m

  let check ~alpha g =
    if Graph.n g <= Bitgraph.max_n then check_bits ~alpha g
    else check_oracle ~alpha g (Dist_oracle.create g)

  let is_stable ~alpha g = Verdict.is_stable (check ~alpha g)
end

include Make (Cost.Metric)
