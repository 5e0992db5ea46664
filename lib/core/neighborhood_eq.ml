let default_budget = 500_000

exception Found of Move.t
exception Out_of_budget

(* Enumerate subsets of [items] of size at most [max_size], smallest
   sizes first (improving moves are usually small, so under a budget the
   size-ordered sweep finds witnesses far earlier than binary-counting
   order), charging one unit of [budget] per emitted subset. *)
let iter_subsets items ~max_size ~budget f =
  let arr = Array.of_list items in
  let k = Array.length arr in
  let emit acc =
    decr budget;
    if !budget < 0 then raise Out_of_budget;
    f (List.rev acc)
  in
  let rec choose size start acc =
    if size = 0 then emit acc
    else
      for i = start to k - size do
        choose (size - 1) (i + 1) (arr.(i) :: acc)
      done
  in
  for size = 0 to min max_size k do
    choose size 0 []
  done

(* The metric surfaces in three places: pricing candidate moves (flip /
   read / unflip on the oracle), the consent prune (a partner whose best
   conceivable distance gain cannot pay for one edge never consents),
   and the net-edge cap |A| − |R| (an agent's total slack bounds how
   many priced edges she can ever profitably add).  The tree-branch
   prune and the single-removal shortcut are not metric hooks: they are
   sound for every non-decreasing distance cost, as argued at each. *)
module Make (M : Metric_sig.METRIC) = struct
  (* [oracle] must represent [g] and is returned pristine: every candidate
     move is priced by flipping its edges on the oracle, reading the cached
     totals, and flipping back.  [before_cost] memoises agent costs on the
     intact graph; it must only be called while the oracle is pristine,
     which [evaluate] guarantees by forcing baselines before it flips. *)
  let check_agent_inner ~alpha ~budget_left ~oracle ~before_cost g u =
    let size = Graph.n g in
    let is_tree = Tree.is_tree g in
    (* Partners that could ever consent to one extra edge in a move centred
       elsewhere.  Any post-move graph H that adds [a] satisfies
       H ⊆ G_all = G + {u-s : every stranger s}, so a's distances in H are
       at least those in G_all, while her degree in H is deg_G(a) + 1, as
       in G_all.  So a's G_all cost lower-bounds her cost after any move of
       u that includes her, for every metric: a partner whose G_all cost
       does not beat her current cost never consents.  Under the linear
       cost on a connected graph, a's G_all gain is exactly the paper's
       consent bound [Σ_w max 0 (dist(a,w) − 2) + 1]. *)
    let candidates =
      let strangers = ref [] in
      for v = size - 1 downto 0 do
        if v <> u && not (Graph.has_edge g u v) then strangers := v :: !strangers
      done;
      let g_all_cost =
        if size <= Bitgraph.max_n then begin
          let bg = Bitgraph.of_graph g in
          List.iter (Bitgraph.add_edge bg u) !strangers;
          M.of_bits ~alpha bg
        end
        else M.of_graph ~alpha (Graph.add_edges g (List.map (fun s -> (u, s)) !strangers))
      in
      List.filter (fun a -> M.strictly_less (g_all_cost a) (before_cost a)) !strangers
    in
    let neighbors = Array.to_list (Graph.neighbors g u) in
    (* Branch labels for the tree connectivity prune: branch.(x) is the
       neighbour of u whose subtree contains x. *)
    let branch =
      if not is_tree then [||]
      else begin
        let label = Array.make size (-1) in
        List.iter
          (fun c ->
            let d = Paths.bfs (Graph.remove_edge g u c) c in
            Array.iteri (fun x dx -> if dx >= 0 then label.(x) <- c) d)
          neighbors;
        label
      end
    in
    (* Cap on |A| − |R|: u pays k·α extra for k net edges but can gain at
       most dist(u) − (n − 1) (the metric's bound; permissive while u has
       an unpriced pair). *)
    let net_cap = M.net_edge_cap ~alpha ~size (before_cost u) in
    let budget = ref budget_left in
    let evaluate drop add =
      if drop = [] && add = [] then ()
      else begin
        decr budget;
        if !budget < 0 then raise Out_of_budget;
        let bu = before_cost u in
        let badds = List.map (fun a -> (a, before_cost a)) add in
        List.iter (fun v -> Dist_oracle.remove_edge oracle u v) drop;
        List.iter (fun a -> Dist_oracle.add_edge oracle u a) add;
        let ok =
          M.strictly_less (M.of_oracle ~alpha oracle u) bu
          && List.for_all
               (fun (a, ba) -> M.strictly_less (M.of_oracle ~alpha oracle a) ba)
               badds
        in
        List.iter (fun a -> Dist_oracle.remove_edge oracle u a) add;
        List.iter (fun v -> Dist_oracle.add_edge oracle u v) drop;
        if ok then raise (Found (Move.Neighborhood { agent = u; drop; add }))
      end
    in
    (* Enumerate A first (usually heavily pruned), then R. *)
    iter_subsets candidates ~max_size:(List.length neighbors + net_cap) ~budget (fun add ->
        let removable =
          if not is_tree then neighbors
          else
            (* Only branches that receive a new edge can lose their edge.
               Dropping the edge to an un-reconnected branch c leaves c
               unreachable, hence far under every metric; keeping it
               prices c at distance 1 (which every metric prices) and
               only shortens the added partners' distances.  So if
               (R, A) improves everyone, so does (R - c, A), which the
               size-ordered sweep meets first: no first witness is
               lost, for any non-decreasing distance cost. *)
            List.filter (fun c -> List.exists (fun a -> branch.(a) = c) add) neighbors
        in
        (* Pure-removal moves need only single removals: Corbo and Parkes
           show that if dropping a set of incident edges improves an agent,
           dropping one of them already does (the argument behind
           Proposition A.2), so for A = ∅ the size-1 subsets are exhaustive.
           The argument holds for every non-decreasing distance cost: the
           vertices whose every shortest path from u starts with edge e
           are disjoint across u's edges, and only they move when e alone
           is dropped, so dropping a set R costs u at least the sum of the
           single drops, in far pairs and in money. *)
        let max_drop = if add = [] then 1 else List.length removable in
        iter_subsets removable ~max_size:max_drop ~budget (fun drop ->
            if List.length add <= List.length drop + net_cap then evaluate drop add));
    !budget

  (* One oracle and one baseline memo per check: moves are always undone,
     so the oracle is pristine between evaluations and the memoised costs
     stay valid across agents. *)
  let make_eval_ctx g =
    let oracle = Dist_oracle.create g in
    let before = Array.make (max (Graph.n g) 1) None in
    let before_cost ~alpha u =
      match before.(u) with
      | Some c -> c
      | None ->
          let c = M.of_oracle ~alpha oracle u in
          before.(u) <- Some c;
          c
    in
    (oracle, before_cost)

  let check_agent ?(budget = default_budget) ~alpha g u =
    let oracle, before_cost = make_eval_ctx g in
    match
      check_agent_inner ~alpha ~budget_left:budget ~oracle
        ~before_cost:(before_cost ~alpha) g u
    with
    | _ -> Verdict.Stable
    | exception Found m -> Verdict.Unstable m
    | exception Out_of_budget ->
        Verdict.Exhausted (Printf.sprintf "BNE move space around agent %d exceeds budget" u)

  let check ?(budget = default_budget) ~alpha g =
    (* The budget is split across agents (with a floor) so the total work is
       bounded by roughly [budget] even when several agents exhaust their
       share; an instability found at a later agent still yields an exact
       [Unstable] answer. *)
    let size = Graph.n g in
    let per_agent = if size = 0 then budget else max 2_000 (budget / size) in
    let oracle, before_cost = make_eval_ctx g in
    let before_cost = before_cost ~alpha in
    let exhausted = ref None in
    let rec go u =
      if u >= size then
        match !exhausted with None -> Verdict.Stable | Some why -> Verdict.Exhausted why
      else
        match check_agent_inner ~alpha ~budget_left:per_agent ~oracle ~before_cost g u with
        | _left -> go (u + 1)
        | exception Found m -> Verdict.Unstable m
        | exception Out_of_budget ->
            if !exhausted = None then
              exhausted :=
                Some (Printf.sprintf "BNE move space around agent %d exceeds budget" u);
            go (u + 1)
    in
    go 0

  let is_stable_exn ?budget ~alpha g =
    Verdict.exactly_stable_exn "Neighborhood_eq" (check ?budget ~alpha g)
end

include Make (Cost.Metric)
