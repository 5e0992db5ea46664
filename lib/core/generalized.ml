(* The generalized BNCG of arXiv 2510.00239 as a GAME instance: the
   bilateral deviation vocabulary, priced through a {!Dist_cost}
   distance-cost function.  RE, BAE, PS, BSwE, BGE and BNE run on the
   bilateral checkers, instantiated with [Cost_gen.Metric].  That metric
   answers the linear prune hooks (gain thresholds, coalition floors)
   permissively, so what carries over is what holds for every
   non-decreasing f: the bitgraph and {!Dist_oracle} flip / read /
   unflip pricing, the cross-component BAE shortcut, and BNE's exact
   consent prune, net-edge cap ({!Cost_gen}), single-removal shortcut
   and tree-branch prune (argued in {!Neighborhood_eq}).

   k-BSE and BSE keep their own coalition-first search here.
   [Strong_eq.Make] over this metric agrees with it on every verdict
   kind, but it is 5-55x slower: its prunes are tied to the linear cost
   and, answered permissively, leave it a larger search than this one. *)

let name = "generalized"

type state = Graph.t

let of_graph g = g
let graph s = s
let relabel = Graph.relabel

type concept = { f : Dist_cost.t; base : Concept.t }

(* Default fuzz vocabulary: every bilateral base concept under one
   strictly convex function and one cutoff function.  [Linear] is
   deliberately absent — it replays the bilateral game, which has its
   own campaigns. *)
let concepts =
  List.concat_map
    (fun base ->
      List.map (fun f -> { f; base }) [ Dist_cost.Power 2; Dist_cost.Cutoff 2 ])
    [
      Concept.RE;
      Concept.BAE;
      Concept.PS;
      Concept.BSwE;
      Concept.BGE;
      Concept.BNE;
      Concept.KBSE 2;
      Concept.BSE;
    ]

let concept_name { f; base } = Concept.name base ^ "@" ^ Dist_cost.name f

let concept_of_string s =
  let s = String.trim s in
  let base_str, f_result =
    match String.index_opt s '@' with
    | None -> (s, Ok Dist_cost.Linear)
    | Some i ->
        ( String.sub s 0 i,
          Dist_cost.of_string (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  match (Concept.of_string base_str, f_result) with
  | Ok base, Ok f -> Ok { f; base }
  | Error _, _ | _, Error _ ->
      Error
        (Printf.sprintf
           "unknown generalized concept %S (expected BASE or BASE@F with BASE one of %s \
            and F one of %s)"
           s Concept.valid_names Dist_cost.valid_names)

(* ------------------------------------------------------------------ *)
(* k-BSE / BSE: budgeted coalition-first enumeration                   *)
(* ------------------------------------------------------------------ *)

(* Coalition-first order (coalition, then added edges, then removals),
   equivalent to the oracle's outcome-first enumeration: an outcome
   graph g' with improving legal coalition S corresponds exactly to the
   triple (S, R, A) with R/A the removed/added edge sets, and both
   sides require every member of S to strictly improve. *)
let check_kbse ?(budget = Neighborhood_eq.default_budget) ~f ~k ~alpha g =
  if k < 1 then invalid_arg "Generalized.check: need k >= 1";
  let exception Found of Move.t in
  let size = Graph.n g in
  let oracle = Dist_oracle.create g in
  let cost = Cost_gen.agent_cost_oracle ~f ~alpha oracle in
  (* Baselines are read only while the oracle is pristine: every
     evaluation forces its members' baselines before it flips. *)
  let before = Array.init size (fun u -> lazy (cost u)) in
  let vertices = List.init size Fun.id in
  let budget = ref budget in
  let iter_subsets items =
    Neighborhood_eq.iter_subsets items ~max_size:(List.length items) ~budget
  in
  try
    Neighborhood_eq.iter_subsets vertices ~max_size:(min k size) ~budget (fun members ->
        if members <> [] then begin
          let mem x = List.exists (Int.equal x) members in
          let removable = List.filter (fun (u, v) -> mem u || mem v) (Graph.edges g) in
          let addable = List.filter (fun (u, v) -> mem u && mem v) (Graph.non_edges g) in
          iter_subsets addable (fun add ->
              iter_subsets removable (fun remove ->
                  if add <> [] || remove <> [] then begin
                    let bms = List.map (fun m -> (m, Lazy.force before.(m))) members in
                    List.iter (fun (u, v) -> Dist_oracle.remove_edge oracle u v) remove;
                    List.iter (fun (u, v) -> Dist_oracle.add_edge oracle u v) add;
                    let ok =
                      List.for_all
                        (fun (m, bm) -> Cost_gen.strictly_less (cost m) bm)
                        bms
                    in
                    List.iter (fun (u, v) -> Dist_oracle.remove_edge oracle u v) add;
                    List.iter (fun (u, v) -> Dist_oracle.add_edge oracle u v) remove;
                    if ok then raise (Found (Move.Coalition { members; remove; add }))
                  end))
        end);
    Verdict.Stable
  with
  | Found m -> Verdict.Unstable m
  | Neighborhood_eq.Out_of_budget ->
      Verdict.Exhausted "generalized k-BSE coalition space exceeds budget"

(* ------------------------------------------------------------------ *)
(* The GAME surface                                                    *)
(* ------------------------------------------------------------------ *)

let check ?budget ~alpha { f; base } g =
  let module M = Cost_gen.Metric (struct
    let f = f
  end) in
  match base with
  | Concept.RE ->
      let module C = Remove_eq.Make (M) in
      C.check ~alpha g
  | Concept.BAE ->
      let module C = Add_eq.Make (M) in
      C.check ~alpha g
  | Concept.PS ->
      let module C = Pairwise.Make (M) in
      C.check ~alpha g
  | Concept.BSwE ->
      let module C = Swap_eq.Make (M) in
      C.check ~alpha g
  | Concept.BGE ->
      let module C = Greedy_eq.Make (M) in
      C.check ~alpha g
  | Concept.BNE ->
      let module C = Neighborhood_eq.Make (M) in
      C.check ?budget ~alpha g
  | Concept.KBSE k -> check_kbse ?budget ~f ~k ~alpha g
  | Concept.BSE -> check_kbse ?budget ~f ~k:(max 1 (Graph.n g)) ~alpha g

let reference ~alpha { f; base } g = Oracle.check_generalized ~f ~alpha base g

(* The deviation structure (and therefore the oracle's tractable range)
   is the bilateral one; only the pricing changes with f. *)
let size_cap { base; _ } = Bilateral.size_cap base
let weighted_sizes { base; _ } sizes = Bilateral.weighted_sizes base sizes

let witness_ok ~alpha { f; _ } g m =
  match Move.apply g m with
  | exception Invalid_argument _ -> false
  | g' ->
      List.for_all
        (fun u ->
          Cost_gen.strictly_less
            (Cost_gen.agent_cost ~f ~alpha g' u)
            (Cost_gen.agent_cost ~f ~alpha g u))
        (Move.participants m)

let rho ~alpha { f; _ } g = Cost_gen.rho ~f ~alpha g
