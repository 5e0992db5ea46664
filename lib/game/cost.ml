type agent = { unreachable : int; buy : float; dist : int }

let money c = c.buy +. float_of_int c.dist

let compare_agent a b =
  let c = Int.compare a.unreachable b.unreachable in
  if c <> 0 then c else Float.compare (money a) (money b)

let strictly_less a b = compare_agent a b < 0

let agent_cost_of_parts ~alpha ~degree ~total =
  {
    unreachable = total.Paths.unreachable;
    buy = alpha *. float_of_int degree;
    dist = total.Paths.sum;
  }

let agent_cost ~alpha g u =
  (* total_dist counts dist(u,u) = 0, matching the paper's dist(u). *)
  agent_cost_of_parts ~alpha ~degree:(Graph.degree g u) ~total:(Paths.total_dist g u)

(* Same cost on the oracle's current graph: O(1) once the row is cached,
   and still exact across edge flips — this is what lets the checkers
   evaluate a move as flip / read / unflip instead of rebuilding the
   graph and re-running BFS. *)
let agent_cost_oracle ~alpha o u =
  agent_cost_of_parts ~alpha ~degree:(Dist_oracle.degree o u)
    ~total:(Dist_oracle.total_dist o u)

let agent_cost_of_bits ~alpha bg u =
  agent_cost_of_parts ~alpha ~degree:(Bitgraph.degree bg u) ~total:(Bitgraph.total_dist bg u)

type social = { disconnected_pairs : int; social_buy : float; social_dist : int }

let social_money s = s.social_buy +. float_of_int s.social_dist

(* Up to [Bitgraph.max_n] vertices the per-agent parts come from a
   word-parallel BFS instead of [Paths] on the pointer graph.  Both give
   the same integers, and the sums run over the vertices in the same
   order, so the float [social_buy] is bit-identical either way. *)
let social_cost ~alpha g =
  let n = Graph.n g in
  let agent =
    if n <= Bitgraph.max_n then agent_cost_of_bits ~alpha (Bitgraph.of_graph g)
    else agent_cost ~alpha g
  in
  let pairs = ref 0 and buy = ref 0. and dist = ref 0 in
  for u = 0 to n - 1 do
    let c = agent u in
    pairs := !pairs + c.unreachable;
    buy := !buy +. c.buy;
    dist := !dist + c.dist
  done;
  { disconnected_pairs = !pairs; social_buy = !buy; social_dist = !dist }

let opt_cost ~alpha n =
  if n <= 1 then 0.
  else
    let nf = float_of_int n in
    if alpha < 1. then nf *. (nf -. 1.) *. (1. +. alpha)
    else 2. *. (nf -. 1.) *. (alpha +. nf -. 1.)

let rho ~alpha g =
  let size = Graph.n g in
  if size <= 1 then 1.
  else
    let s = social_cost ~alpha g in
    if s.disconnected_pairs > 0 then infinity else social_money s /. opt_cost ~alpha size

(* The BNCG cost packaged as a checker kernel (Game_sig.METRIC).  The
   pruning theory is the paper's: a distance gain beats one edge price
   iff it strictly exceeds α; an agent with distance sum D in a
   connected n-graph gains at most D − (n−1) from any move, so she buys
   at most ceil((D − (n−1))/α) net edges; and an agent at the global
   per-agent minimum d(α−1) + 2(n−1), d ∈ {1, n−1}, can never strictly
   improve, hence never joins a coalition (Proposition 3.16). *)
module Metric = struct
  type nonrec agent = agent

  let of_bits = agent_cost_of_bits

  let of_oracle = agent_cost_oracle
  let of_graph = agent_cost
  let strictly_less = strictly_less
  let gain_improves ~alpha gain = float_of_int gain > alpha

  let net_edge_cap ~alpha ~size c =
    if c.unreachable > 0 || alpha <= 0. then size
    else
      let slack = float_of_int (c.dist - (size - 1)) in
      if slack <= 0. then 0 else max 0 (int_of_float (Float.ceil (slack /. alpha)))

  let min_possible_cost ~alpha n =
    if n <= 1 then 0.
    else
      let at d = (float_of_int d *. (alpha -. 1.)) +. (2. *. float_of_int (n - 1)) in
      min (at 1) (at (n - 1))

  let could_join_coalition ~alpha ~size c =
    c.unreachable > 0 || money c > min_possible_cost ~alpha size +. 1e-9
end
