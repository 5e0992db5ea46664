open Helpers

(* ρ as priced before [Cost.social_cost] read the Bitgraph: one
   [Paths] BFS per agent on the pointer graph, summed in vertex order. *)
let rho_on_graph ~alpha g =
  let size = Graph.n g in
  if size <= 1 then 1.
  else begin
    let pairs = ref 0 and buy = ref 0. and dist = ref 0 in
    for u = 0 to size - 1 do
      let c = Cost.agent_cost ~alpha g u in
      pairs := !pairs + c.Cost.unreachable;
      buy := !buy +. c.Cost.buy;
      dist := !dist + c.Cost.dist
    done;
    if !pairs > 0 then infinity
    else (!buy +. float_of_int !dist) /. Cost.opt_cost ~alpha size
  end

(* Seeded G(n,p): each pair an edge with probability [p]; sparse draws
   are often disconnected. *)
let gnp rng n p =
  let es = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Splitmix.float rng < p then es := (u, v) :: !es
    done
  done;
  Graph.of_edges n !es

let suite =
  [
    tc "agent cost on a star" (fun () ->
        let g = Gen.star 6 and alpha = 2.5 in
        let center = Cost.agent_cost ~alpha g 0 in
        check_float "center buy" (5. *. alpha) center.Cost.buy;
        check_int "center dist" 5 center.Cost.dist;
        let leaf = Cost.agent_cost ~alpha g 3 in
        check_float "leaf buy" alpha leaf.Cost.buy;
        check_int "leaf dist" 9 leaf.Cost.dist;
        check_int "connected" 0 leaf.Cost.unreachable);
    tc "money combines buy and dist" (fun () ->
        let c = { Cost.unreachable = 0; buy = 3.5; dist = 7 } in
        check_float "money" 10.5 (Cost.money c));
    tc "comparison is lexicographic in unreachable count" (fun () ->
        let cheap_but_disconnected = { Cost.unreachable = 1; buy = 0.; dist = 0 } in
        let expensive_connected = { Cost.unreachable = 0; buy = 1000.; dist = 1000 } in
        check_true "connected wins"
          (Cost.strictly_less expensive_connected cheap_but_disconnected);
        check_false "not the other way"
          (Cost.strictly_less cheap_but_disconnected expensive_connected));
    tc "strictly_less is strict" (fun () ->
        let c = { Cost.unreachable = 0; buy = 2.; dist = 3 } in
        check_false "irreflexive" (Cost.strictly_less c c));
    tc "social cost of the star matches Section 3.1" (fun () ->
        let n = 9 and alpha = 3. in
        let s = Cost.social_cost ~alpha (Gen.star n) in
        check_float "total" (2. *. float_of_int (n - 1) *. (alpha +. float_of_int (n - 1)))
          (Cost.social_money s);
        check_float "buy is 2*alpha*m" (2. *. alpha *. float_of_int (n - 1)) s.Cost.social_buy);
    tc "social cost of the clique" (fun () ->
        let n = 6 and alpha = 0.5 in
        let s = Cost.social_cost ~alpha (Gen.clique n) in
        check_float "total" (float_of_int (n * (n - 1)) *. (1. +. alpha)) (Cost.social_money s));
    tc "opt_cost formulas and boundary" (fun () ->
        check_float "alpha<1" (5. *. 4. *. 1.5) (Cost.opt_cost ~alpha:0.5 5);
        check_float "alpha>=1" (2. *. 4. *. (2. +. 4.)) (Cost.opt_cost ~alpha:2. 5);
        (* at alpha = 1 clique and star coincide *)
        check_float "boundary" (Cost.opt_cost ~alpha:1. 7) (7. *. 6. *. 2.);
        check_float "n=1" 0. (Cost.opt_cost ~alpha:2. 1));
    tc "rho of the optimum is 1" (fun () ->
        check_float "star" 1. (Cost.rho ~alpha:2. (Gen.star 8));
        check_float "clique" 1. (Cost.rho ~alpha:0.25 (Gen.clique 6)));
    tc "rho of disconnected graphs is infinite" (fun () ->
        check_true "inf" (Cost.rho ~alpha:2. (Graph.create 4) = Float.infinity));
    tc "rho of trivial graphs" (fun () ->
        check_float "n=1" 1. (Cost.rho ~alpha:2. (Graph.create 1)));
    tc "rho of a path exceeds 1 for alpha >= 1" (fun () ->
        check_true "path worse than star" (Cost.rho ~alpha:2. (Gen.path 8) > 1.));
    tc "star uniquely optimal for alpha > 1 among samples" (fun () ->
        let alpha = 3. in
        List.iter
          (fun g -> check_true "worse" (Cost.rho ~alpha g >= 1.))
          (Enumerate.free_trees 7));
    tc "rho on the Bitgraph keeps the Graph.t bits" (fun () ->
        let graphs =
          List.concat_map Enumerate.connected_graphs_iso [ 1; 2; 3; 4; 5; 6; 7 ]
          @
          let rng = Splitmix.create 0x0c05L in
          List.init 200 (fun _ ->
              let n = 1 + Splitmix.int rng 20 in
              gnp rng n (0.05 +. (0.5 *. Splitmix.float rng)))
          @ [ Gen.path 70 ]
        in
        check_true "some sampled graphs are disconnected"
          (List.exists (fun g -> not (Paths.is_connected g)) graphs);
        List.iter
          (fun alpha ->
            List.iter
              (fun g ->
                let bits x = Int64.bits_of_float x in
                if bits (Cost.rho ~alpha g) <> bits (rho_on_graph ~alpha g) then
                  Alcotest.failf "alpha %g, %s: %h vs %h" alpha (Encode.to_graph6 g)
                    (Cost.rho ~alpha g) (rho_on_graph ~alpha g))
              graphs)
          (* 1/3 and 0.1 make the float sum of the buy parts depend on
             its order; the other α keep it exact. *)
          [ 0.5; 1.; 2.; 8.; 1. /. 3.; 0.1 ]);
    tc "social cost equals sum of agent costs" (fun () ->
        let g = Gen.random_connected (rng 3) 9 ~p:0.3 and alpha = 1.5 in
        let s = Cost.social_cost ~alpha g in
        let total =
          List.fold_left
            (fun acc u -> acc +. Cost.money (Cost.agent_cost ~alpha g u))
            0.
            (List.init (Graph.n g) (fun u -> u))
        in
        check_float "sum" total (Cost.social_money s));
  ]
