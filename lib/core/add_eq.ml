(* For connected pairs the distance gain of adding uv is exactly
   Σ_x max 0 (d(u,x) − (1 + d(v,x))): a shortest path after the addition
   either avoids the new edge or leaves u through it.  If v is unreachable
   from u, adding uv strictly improves both agents under every metric: v
   becomes reachable at distance 1, which every cost prices, and no priced
   pair gets longer.  So every cross-component pair is a violation.

   Whether a distance gain beats the price of the new edge is the metric's
   call ([M.gain_improves]; strictly-above-α for the BNCG cost).  The
   checker treats it as a prune: a pair passing it on both sides is then
   priced exactly (flip / read / unflip on the bitgraph or the oracle) and
   reported only if both agents strictly improve.  For the BNCG cost the
   gain test is already exact, so the exact pricing runs once, at the
   witness; a metric whose cost is not a linear function of the distance
   sum answers the gain test permissively and lets the pricing decide. *)

module Make (M : Metric_sig.METRIC) = struct
  let gain_within_component dist_u dist_v =
    let gain = ref 0 in
    Array.iteri
      (fun x du ->
        let dv = dist_v.(x) in
        if du >= 0 && dv >= 0 && du > dv + 1 then gain := !gain + (du - (dv + 1)))
      dist_u;
    !gain

  (* The pair scan shared by both paths.  [row u] is u's distance row on
     the intact graph; [price] prices an agent on the current graph, whose
     edge uv [add_edge]/[remove_edge] flip.  Baselines are memoised and
     always taken on the intact graph, before the flip. *)
  let scan ~alpha g ~row ~price ~add_edge ~remove_edge =
    let size = Graph.n g in
    let exception Found of Move.t in
    let before = Array.make (max size 1) None in
    let before_cost u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = price u in
          before.(u) <- Some c;
          c
    in
    let improves_both u v =
      let bu = before_cost u and bv = before_cost v in
      add_edge u v;
      let ok = M.strictly_less (price u) bu && M.strictly_less (price v) bv in
      remove_edge u v;
      ok
    in
    try
      for u = 0 to size - 1 do
        for v = u + 1 to size - 1 do
          if not (Graph.has_edge g u v) then begin
            let du = row u in
            if du.(v) < 0 then raise (Found (Move.Bilateral_add { u; v }))
            else begin
              let dv = row v in
              if
                M.gain_improves ~alpha (gain_within_component du dv)
                && M.gain_improves ~alpha (gain_within_component dv du)
                && improves_both u v
              then raise (Found (Move.Bilateral_add { u; v }))
            end
          end
        done
      done;
      Verdict.Stable
    with Found m -> Verdict.Unstable m

  (* Only the exact pricing of a surviving pair flips [o], and it flips
     back, so the oracle's row cache is what this path gains: {!Pairwise}
     passes the oracle its RE pass already warmed, and every row RE left
     valid is free for this pass. *)
  let check_oracle ~alpha g o =
    scan ~alpha g ~row:(Dist_oracle.row o) ~price:(M.of_oracle ~alpha o)
      ~add_edge:(Dist_oracle.add_edge o) ~remove_edge:(Dist_oracle.remove_edge o)

  let check_bits ~alpha g =
    let size = Graph.n g in
    let bg = Bitgraph.of_graph g in
    let dist = Array.make size [||] in
    let row u =
      if Array.length dist.(u) = 0 then dist.(u) <- Bitgraph.bfs bg u;
      dist.(u)
    in
    scan ~alpha g ~row ~price:(M.of_bits ~alpha bg) ~add_edge:(Bitgraph.add_edge bg)
      ~remove_edge:(Bitgraph.remove_edge bg)

  let check ~alpha g =
    if Graph.n g <= Bitgraph.max_n then check_bits ~alpha g
    else check_oracle ~alpha g (Dist_oracle.create g)

  let is_stable ~alpha g = Verdict.is_stable (check ~alpha g)
end

include Make (Cost.Metric)
