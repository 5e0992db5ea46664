(* The generalized BNCG cost model (arXiv 2510.00239), mirroring Cost:
   agent u pays alpha per incident edge plus Dist_cost.eval f d for
   every priced pair, and pairs f cannot price (unreachable, or beyond
   a cutoff radius) are counted separately and dominate
   lexicographically — the generalized analogue of the paper's
   M-preference for connectivity. *)

type agent = { far : int; buy : float; fdist : int }

let money c = c.buy +. float_of_int c.fdist

let compare_agent a b =
  let c = Int.compare a.far b.far in
  if c <> 0 then c else Float.compare (money a) (money b)

let strictly_less a b = compare_agent a b < 0

(* Price an agent straight off a BFS distance row ([-1] = unreachable).
   Both the scratch [Paths.bfs] rows and the incrementally maintained
   [Dist_oracle] rows have this shape, so the definition-literal oracle
   and the flip-based checkers share one summation. *)
let agent_of_row ~f ~alpha ~degree ~self row =
  let far = ref 0 and fd = ref 0 in
  Array.iteri
    (fun v d ->
      if v <> self then
        match Dist_cost.eval f d with None -> incr far | Some c -> fd := !fd + c)
    row;
  { far = !far; buy = alpha *. float_of_int degree; fdist = !fd }

let agent_cost ~f ~alpha g u =
  agent_of_row ~f ~alpha ~degree:(Graph.degree g u) ~self:u (Paths.bfs g u)

let agent_cost_oracle ~f ~alpha o u =
  agent_of_row ~f ~alpha ~degree:(Dist_oracle.degree o u) ~self:u (Dist_oracle.row o u)

(* The checker kernel.  The gain and coalition hooks are linear-cost
   theory and answer permissively, which the METRIC laws allow: every
   candidate they would have cut is priced exactly instead.  The net-edge
   cap carries over: an agent with no far pair keeps none in an improving
   move, and then every other agent costs her at least [f 1], so k net
   extra edges need k·α < fdist − (n − 1)·f 1. *)
module Metric (F : sig
  val f : Dist_cost.t
end) =
struct
  type nonrec agent = agent

  let of_bits ~alpha bg u =
    agent_of_row ~f:F.f ~alpha ~degree:(Bitgraph.degree bg u) ~self:u (Bitgraph.bfs bg u)

  let of_oracle = agent_cost_oracle ~f:F.f
  let of_graph = agent_cost ~f:F.f
  let strictly_less = strictly_less
  let gain_improves ~alpha:_ _ = true

  let net_edge_cap ~alpha ~size c =
    if c.far > 0 || alpha <= 0. then size
    else
      let floor = (size - 1) * Option.value ~default:0 (Dist_cost.eval F.f 1) in
      let slack = float_of_int (c.fdist - floor) in
      if slack <= 0. then 0 else max 0 (int_of_float (Float.ceil (slack /. alpha)))

  let could_join_coalition ~alpha:_ ~size:_ _ = true
end

type social = { far_pairs : int; social_buy : float; social_fdist : int }

let social_money s = s.social_buy +. float_of_int s.social_fdist

let compare_social a b =
  let c = Int.compare a.far_pairs b.far_pairs in
  if c <> 0 then c else Float.compare (social_money a) (social_money b)

let social_cost ~f ~alpha g =
  let acc = ref { far_pairs = 0; social_buy = 0.; social_fdist = 0 } in
  for u = 0 to Graph.n g - 1 do
    let c = agent_cost ~f ~alpha g u in
    acc :=
      {
        far_pairs = !acc.far_pairs + c.far;
        social_buy = !acc.social_buy +. c.buy;
        social_fdist = !acc.social_fdist + c.fdist;
      }
  done;
  !acc

(* Social cost of the n-star and n-clique, from their exact ordered-pair
   distance profiles: the star has 2(n-1) pairs at distance 1 and
   (n-1)(n-2) at distance 2; the clique has all n(n-1) pairs at
   distance 1. *)
let profile_cost ~f ~alpha ~edges profile =
  let far = ref 0 and fd = ref 0 in
  List.iter
    (fun (d, count) ->
      match Dist_cost.eval f d with
      | None -> far := !far + count
      | Some c -> fd := !fd + (c * count))
    profile;
  {
    far_pairs = !far;
    social_buy = alpha *. float_of_int (2 * edges);
    social_fdist = !fd;
  }

(* The social optimum, as in the classic game, is the lexicographic
   better of the star and the clique.  Why that remains exact for every
   f in the Dist_cost vocabulary: a graph with m edges has 2m ordered
   pairs at distance 1 and the remaining n(n-1) - 2m at distance >= 2,
   so (f non-decreasing) its social cost is at least
   B(m) = 2m*alpha + 2m*f(1) + (n(n-1) - 2m)*f(2), linear in m — its
   minimum over m in [n-1, n(n-1)/2] is at an endpoint, and the star
   (diameter 2) attains B(n-1) while the clique attains B(n(n-1)/2).
   When f(2) itself is far (only Cutoff 1), every non-clique has far
   pairs and the clique, with none, wins lexicographically; for
   Cutoff r >= 2 both candidates are far-free and the bound degenerates
   to money 2m*alpha, minimised by the star. *)
let opt_cost ~f ~alpha n =
  if n <= 1 then { far_pairs = 0; social_buy = 0.; social_fdist = 0 }
  else
    let star =
      profile_cost ~f ~alpha ~edges:(n - 1)
        [ (1, 2 * (n - 1)); (2, (n - 1) * (n - 2)) ]
    in
    let clique =
      profile_cost ~f ~alpha ~edges:(n * (n - 1) / 2) [ (1, n * (n - 1)) ]
    in
    if compare_social star clique <= 0 then star else clique

let rho ~f ~alpha g =
  let size = Graph.n g in
  if size <= 1 then 1.
  else
    let s = social_cost ~f ~alpha g in
    if s.far_pairs > 0 then infinity
    else
      let opt = social_money (opt_cost ~f ~alpha size) in
      (* opt >= 2*alpha*(n-1) > 0 whenever alpha > 0; the alpha = 0
         corner (possible only through the library API) divides 0/0
         without this guard. *)
      if opt > 0. then social_money s /. opt
      else if social_money s > 0. then infinity
      else 1.
