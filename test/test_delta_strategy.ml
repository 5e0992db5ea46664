open Helpers

let suite =
  [
    tc "improves agrees with direct cost comparison" (fun () ->
        let g = Gen.path 5 and alpha = 1.5 in
        let g' = Graph.add_edge g 0 4 in
        (* 0 gains dist 4->1, 3->2: gain 3+1+... dist(0) = 10 -> 1+2+2+1=6;
           gain 4 > alpha, so adding improves 0 despite paying alpha *)
        check_true "improves" (Delta.improves ~alpha ~before:g ~after:g' 0);
        check_false "mid vertex pays nothing, same dist" (Delta.improves ~alpha ~before:g ~after:g' 2));
    tc "cost_delta signs" (fun () ->
        let g = Gen.path 4 and alpha = 10. in
        let g' = Graph.add_edge g 0 3 in
        check_true "worse for 0 at high alpha" (Delta.cost_delta ~alpha ~before:g ~after:g' 0 > 0.);
        let g'' = Graph.remove_edge g 0 1 in
        check_true "nan when connectivity changes"
          (Float.is_nan (Delta.cost_delta ~alpha ~before:g ~after:g'' 0)));
    tc "add_edge_gain closed form matches recomputation" (fun () ->
        let r = rng 13 in
        for _ = 1 to 50 do
          let n = 3 + Random.State.int r 10 in
          let g = Gen.random_connected r n ~p:0.3 in
          let u = Random.State.int r n in
          let v = (u + 1 + Random.State.int r (n - 1)) mod n in
          if not (Graph.has_edge g u v) then begin
            let gain = Delta.add_edge_gain ~dist_u:(Paths.bfs g u) ~dist_v:(Paths.bfs g v) in
            let before = (Paths.total_dist g u).Paths.sum in
            let after = (Paths.total_dist (Graph.add_edge g u v) u).Paths.sum in
            check_int "gain" (before - after) gain
          end
        done);
    tc "consent bound dominates actual single-partner gain" (fun () ->
        (* v's gain when a neighborhood change around u adds the edge uv is
           at most the consent bound, whatever else the move does *)
        let r = rng 19 in
        for _ = 1 to 40 do
          let n = 4 + Random.State.int r 8 in
          let g = Gen.random_tree r n in
          let u = Random.State.int r n in
          let v = (u + 1 + Random.State.int r (n - 1)) mod n in
          if not (Graph.has_edge g u v) then begin
            let bound = Delta.consent_upper_bound g v in
            let before = (Paths.total_dist g v).Paths.sum in
            let after = (Paths.total_dist (Graph.add_edge g u v) v).Paths.sum in
            check_true "bound holds" (before - after <= bound)
          end
        done);
    tc "consent bound is the gain from u linking to every stranger" (fun () ->
        (* the BNE checker prices partners in G_all = G + {u-s : every
           stranger s}; on a connected graph the distance gain there is
           exactly the paper's bound, so the linear checker prunes as the
           paper does *)
        let r = rng 23 in
        for i = 1 to 60 do
          let n = 3 + Random.State.int r 10 in
          let g = if i mod 2 = 0 then Gen.random_tree r n else Gen.random_connected r n ~p:0.3 in
          let u = Random.State.int r n in
          let strangers =
            List.filter (fun s -> s <> u && not (Graph.has_edge g u s)) (List.init n Fun.id)
          in
          let g_all = Graph.add_edges g (List.map (fun s -> (u, s)) strangers) in
          List.iter
            (fun v ->
              check_int "gain"
                (Delta.consent_upper_bound g v)
                ((Paths.total_dist g v).Paths.sum - (Paths.total_dist g_all v).Paths.sum))
            strangers
        done);
    tc "assignment construction and owner lookup" (fun () ->
        let g = Gen.path 3 in
        let a = Strategy.make g [ ((0, 1), 0); ((1, 2), 2) ] in
        check_int "owner" 0 (Strategy.owner a 0 1);
        check_int "owner symmetric query" 0 (Strategy.owner a 1 0);
        Alcotest.(check (list int)) "strategy 0" [ 1 ] (Strategy.strategy a 0);
        Alcotest.(check (list int)) "strategy 1" [] (Strategy.strategy a 1);
        Alcotest.(check (list int)) "strategy 2" [ 1 ] (Strategy.strategy a 2));
    tc "assignment validation" (fun () ->
        let g = Gen.path 3 in
        check_raises_invalid "missing edge" (fun () -> Strategy.make g [ ((0, 1), 0) ]);
        check_raises_invalid "foreign owner" (fun () ->
            Strategy.make g [ ((0, 1), 2); ((1, 2), 1) ]);
        check_raises_invalid "not an edge" (fun () ->
            Strategy.make g [ ((0, 2), 0); ((0, 1), 0); ((1, 2), 1) ]);
        check_raises_invalid "duplicate" (fun () ->
            Strategy.make g [ ((0, 1), 0); ((1, 0), 1); ((1, 2), 1) ]));
    tc "reassign" (fun () ->
        let g = Gen.path 3 in
        let a = Strategy.canonical_assignment g in
        check_int "before" 0 (Strategy.owner a 0 1);
        let a' = Strategy.reassign a 0 1 1 in
        check_int "after" 1 (Strategy.owner a' 0 1);
        check_int "original intact" 0 (Strategy.owner a 0 1));
    tc "all_assignments count" (fun () ->
        check_int "2^m" 8 (List.length (Strategy.all_assignments (Gen.path 4)));
        check_int "2^0" 1 (List.length (Strategy.all_assignments (Graph.create 3))));
    tc "strategy sizes sum to m" (fun () ->
        let g = Gen.cycle 5 in
        List.iter
          (fun a ->
            let total =
              List.fold_left ( + ) 0 (List.init 5 (fun u -> Strategy.strategy_size a u))
            in
            check_int "sum" 5 total)
          (Strategy.all_assignments g));
    tc "bilateral strategies roundtrip" (fun () ->
        let g = Gen.random_connected (rng 7) 8 ~p:0.3 in
        check_graph "roundtrip" g (Strategy.bilateral_graph (Strategy.bilateral_strategies g)));
    tc "bilateral semantics require mutual consent" (fun () ->
        let s = [| [ 1 ]; []; [ 1 ] |] in
        check_int "no edges" 0 (Graph.num_edges (Strategy.bilateral_graph s));
        let s' = [| [ 1 ]; [ 0 ]; [] |] in
        check_int "one edge" 1 (Graph.num_edges (Strategy.bilateral_graph s')));
    tc "unilateral semantics need only one side" (fun () ->
        let s = [| [ 1 ]; []; [ 1 ] |] in
        let g = Strategy.unilateral_graph s in
        check_true "0-1" (Graph.has_edge g 0 1);
        check_true "1-2" (Graph.has_edge g 1 2);
        check_int "m" 2 (Graph.num_edges g));
  ]
