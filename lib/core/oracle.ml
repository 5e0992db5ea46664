(* Deliberately naive reference checkers, written straight from the
   paper's deviation definitions.  Every fast path in the production
   checkers (the Bitgraph kernel, the BNE consent bound, the k-BSE
   budget splitting) is a chance to silently diverge from the
   definitions; this module is the slow, obviously correct side of that
   differential.  Rules of the house:

   - persistent [Graph] operations and [Cost_gen.agent_cost] only — no
     Bitgraph, no cached BFS rows, no memoisation across deviations;
   - deviations are enumerated exactly as the definitions quantify
     them, with no pruning and no early consent bounds;
   - a deviation improves an agent iff [Cost_gen.strictly_less] says her
     full lexicographic cost went down — never a hand-derived gain
     formula.

   Each deviation shape is enumerated once, for the generalized game of
   arXiv 2510.00239 under a distance-cost function [f].  Its deviation
   structure is the bilateral one; only the improvement order changes
   with [f].  The bilateral game is [f = Dist_cost.Linear], under which
   [Cost_gen] prices every agent exactly as [Cost] does.

   The coalition oracles enumerate every outcome graph and are
   therefore exponential in n(n-1)/2; they refuse n > 6 rather than
   pretend to scale.  [max_n] advertises the caps so the testkit's case
   generators can respect them. *)

let improves ~f ~alpha ~before ~after u =
  Cost_gen.strictly_less
    (Cost_gen.agent_cost ~f ~alpha after u)
    (Cost_gen.agent_cost ~f ~alpha before u)

(* All subsets of [xs].  Exponential on purpose; callers keep [xs]
   tiny. *)
let subsets xs =
  List.fold_left (fun acc x -> acc @ List.map (fun s -> s @ [ x ]) acc) [ [] ] xs

let vertices g = List.init (Graph.n g) Fun.id

(* ------------------------------------------------------------------ *)
(* Single-edge bilateral deviations                                    *)
(* ------------------------------------------------------------------ *)

(* RE: some endpoint of some edge improves by unilaterally dropping
   it (removal needs no consent). *)
let check_re ~f ~alpha g =
  let exception Found of Move.t in
  try
    List.iter
      (fun (u, v) ->
        let g' = Graph.remove_edge g u v in
        if improves ~f ~alpha ~before:g ~after:g' u then
          raise (Found (Move.Remove { agent = u; target = v }));
        if improves ~f ~alpha ~before:g ~after:g' v then
          raise (Found (Move.Remove { agent = v; target = u })))
      (Graph.edges g);
    Verdict.Stable
  with Found m -> Verdict.Unstable m

(* BAE: some non-edge whose addition strictly improves both endpoints
   (addition needs mutual consent). *)
let check_bae ~f ~alpha g =
  let exception Found of Move.t in
  try
    List.iter
      (fun (u, v) ->
        let g' = Graph.add_edge g u v in
        if
          improves ~f ~alpha ~before:g ~after:g' u
          && improves ~f ~alpha ~before:g ~after:g' v
        then raise (Found (Move.Bilateral_add { u; v })))
      (Graph.non_edges g);
    Verdict.Stable
  with Found m -> Verdict.Unstable m

(* BSwE: some agent u, incident edge uv and non-neighbour w such that
   the swap G - uv + uw strictly improves u and the new partner w (the
   dropped partner v is not asked). *)
let check_bswe ~f ~alpha g =
  let size = Graph.n g in
  let exception Found of Move.t in
  try
    for u = 0 to size - 1 do
      for v = 0 to size - 1 do
        if Graph.has_edge g u v then
          for w = 0 to size - 1 do
            if w <> u && w <> v && not (Graph.has_edge g u w) then begin
              let g' = Graph.add_edge (Graph.remove_edge g u v) u w in
              if
                improves ~f ~alpha ~before:g ~after:g' u
                && improves ~f ~alpha ~before:g ~after:g' w
              then raise (Found (Move.Bilateral_swap { u; drop = v; add = w }))
            end
          done
      done
    done;
    Verdict.Stable
  with Found m -> Verdict.Unstable m

let compose a b ~f ~alpha g =
  match a ~f ~alpha g with Verdict.Stable -> b ~f ~alpha g | v -> v

let check_ps = compose check_re check_bae
let check_bge = compose check_ps check_bswe

(* ------------------------------------------------------------------ *)
(* BNE: neighbourhood deviations                                       *)
(* ------------------------------------------------------------------ *)

(* Some agent u, some set of incident edges to drop and some set of new
   partners to add (not both empty), such that u and every added
   partner strictly improve.  Dropped partners are not asked. *)
let check_bne ~f ~alpha g =
  let exception Found of Move.t in
  try
    List.iter
      (fun u ->
        let neighbors = Array.to_list (Graph.neighbors g u) in
        let strangers =
          List.filter (fun v -> v <> u && not (Graph.has_edge g u v)) (vertices g)
        in
        List.iter
          (fun drop ->
            List.iter
              (fun add ->
                if drop <> [] || add <> [] then begin
                  let m = Move.Neighborhood { agent = u; drop; add } in
                  let g' = Move.apply g m in
                  if
                    improves ~f ~alpha ~before:g ~after:g' u
                    && List.for_all (fun w -> improves ~f ~alpha ~before:g ~after:g' w) add
                  then raise (Found m)
                end)
              (subsets strangers))
          (subsets neighbors))
      (vertices g);
    Verdict.Stable
  with Found m -> Verdict.Unstable m

(* ------------------------------------------------------------------ *)
(* k-BSE: coalition deviations, by outcome enumeration                 *)
(* ------------------------------------------------------------------ *)

(* A coalition S (|S| <= k) may remove any edges incident to S and add
   any non-edges inside S; the deviation counts iff every member of S
   strictly improves.  Enumerating outcome graphs is the same
   quantification read off the edge sets: for every g' <> g, the
   deviation producing it is legal for S iff every added edge lies
   inside S and every removed edge touches S.  Since every member of a
   qualifying S must improve in g', S ranges over subsets of the
   improving vertices of g' — that restriction is the definition
   itself, not a heuristic. *)
let check_kbse ~f ~k ~alpha g =
  let size = Graph.n g in
  if size > 6 then
    invalid_arg "Oracle: the k-BSE oracle enumerates outcomes, n <= 6 only";
  if k < 1 then invalid_arg "Oracle: need k >= 1";
  let slots = size * (size - 1) / 2 in
  let pairs = Array.make (max slots 1) (0, 0) in
  let idx = ref 0 in
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      pairs.(!idx) <- (u, v);
      incr idx
    done
  done;
  let base_mask = ref 0 in
  for b = 0 to slots - 1 do
    let u, v = pairs.(b) in
    if Graph.has_edge g u v then base_mask := !base_mask lor (1 lsl b)
  done;
  let before = Array.init size (fun u -> Cost_gen.agent_cost ~f ~alpha g u) in
  let mem x xs = List.exists (Int.equal x) xs in
  let exception Found of Move.t in
  try
    for mask = 0 to (1 lsl slots) - 1 do
      if mask <> !base_mask then begin
        let g' = ref (Graph.create size) in
        for b = 0 to slots - 1 do
          if mask land (1 lsl b) <> 0 then begin
            let u, v = pairs.(b) in
            g' := Graph.add_edge !g' u v
          end
        done;
        let g' = !g' in
        let added = ref [] and removed = ref [] in
        for b = slots - 1 downto 0 do
          let now = mask land (1 lsl b) <> 0 and was = !base_mask land (1 lsl b) <> 0 in
          if now && not was then added := pairs.(b) :: !added
          else if was && not now then removed := pairs.(b) :: !removed
        done;
        let happier =
          List.filter
            (fun w ->
              Cost_gen.strictly_less (Cost_gen.agent_cost ~f ~alpha g' w) before.(w))
            (vertices g)
        in
        List.iter
          (fun members ->
            if
              members <> []
              && List.length members <= k
              && List.for_all (fun (u, v) -> mem u members && mem v members) !added
              && List.for_all (fun (u, v) -> mem u members || mem v members) !removed
            then
              raise (Found (Move.Coalition { members; remove = !removed; add = !added })))
          (subsets happier)
      end
    done;
    Verdict.Stable
  with Found m -> Verdict.Unstable m

let check_bse ~f ~alpha g = check_kbse ~f ~k:(max 1 (Graph.n g)) ~alpha g

(* ------------------------------------------------------------------ *)
(* The Concept.t dispatch                                              *)
(* ------------------------------------------------------------------ *)

let check_generalized ?budget ~f ~alpha concept g =
  (* The oracle is exhaustive by construction; it never truncates. *)
  ignore budget;
  match concept with
  | Concept.RE -> check_re ~f ~alpha g
  | Concept.BAE -> check_bae ~f ~alpha g
  | Concept.PS -> check_ps ~f ~alpha g
  | Concept.BSwE -> check_bswe ~f ~alpha g
  | Concept.BGE -> check_bge ~f ~alpha g
  | Concept.BNE -> check_bne ~f ~alpha g
  | Concept.KBSE k -> check_kbse ~f ~k ~alpha g
  | Concept.BSE -> check_bse ~f ~alpha g

let check ?budget ~alpha concept g =
  check_generalized ?budget ~f:Dist_cost.Linear ~alpha concept g

let max_n = function
  | Concept.KBSE _ | Concept.BSE -> 6
  | Concept.BNE -> 9
  | Concept.RE | Concept.BAE | Concept.PS | Concept.BSwE | Concept.BGE -> max_int

(* ------------------------------------------------------------------ *)
(* Unilateral NCG oracles                                              *)
(* ------------------------------------------------------------------ *)

(* Agent u's unilateral cost: alpha per owned edge plus the usual
   distances in the created graph. *)
let unilateral_cost ~alpha ~owned g u =
  Cost.agent_cost_of_parts ~alpha ~degree:owned ~total:(Paths.total_dist g u)

let current_cost ~alpha a u =
  unilateral_cost ~alpha ~owned:(Strategy.strategy_size a u) (Strategy.graph a) u

(* NE: rebuild the created graph for every alternative strategy set of
   every agent and compare full costs.  No distance-row tricks. *)
let unilateral_nash ~alpha a =
  let g = Strategy.graph a in
  let size = Graph.n g in
  if size > 16 then invalid_arg "Oracle.unilateral_nash: n > 16";
  let base u =
    List.fold_left (fun h v -> Graph.remove_edge h u v) g (Strategy.strategy a u)
  in
  let exception Hit of int * int list in
  try
    List.iter
      (fun u ->
        let here = current_cost ~alpha a u in
        let others = List.filter (fun v -> v <> u) (vertices g) in
        List.iter
          (fun strat ->
            let g' = List.fold_left (fun h v -> Graph.add_edge h u v) (base u) strat in
            let c = unilateral_cost ~alpha ~owned:(List.length strat) g' u in
            if Cost.strictly_less c here then raise (Hit (u, List.sort compare strat)))
          (subsets others))
      (vertices g);
    Ok ()
  with Hit (u, s) -> Error (u, s)

(* AE: u alone buys one absent edge uv (v is not asked and pays
   nothing). *)
let unilateral_add_eq ~alpha a =
  let g = Strategy.graph a in
  let exception Hit of int * int in
  try
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            if v <> u && not (Graph.has_edge g u v) then begin
              let g' = Graph.add_edge g u v in
              let c =
                unilateral_cost ~alpha ~owned:(Strategy.strategy_size a u + 1) g' u
              in
              if Cost.strictly_less c (current_cost ~alpha a u) then raise (Hit (u, v))
            end)
          (vertices g))
      (vertices g);
    Ok ()
  with Hit (u, v) -> Error (u, v)

(* RE: u drops one edge she owns. *)
let unilateral_remove_eq ~alpha a =
  let g = Strategy.graph a in
  let exception Hit of int * int in
  try
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            let g' = Graph.remove_edge g u v in
            let c = unilateral_cost ~alpha ~owned:(Strategy.strategy_size a u - 1) g' u in
            if Cost.strictly_less c (current_cost ~alpha a u) then raise (Hit (u, v)))
          (Strategy.strategy a u))
      (vertices g);
    Ok ()
  with Hit (u, v) -> Error (u, v)

(* GE: single owned-edge removal, single addition, or single owned-edge
   swap — the unilateral greedy move set. *)
let unilateral_greedy_eq ~alpha a =
  let g = Strategy.graph a in
  let exception Hit of int * string in
  try
    (match unilateral_remove_eq ~alpha a with
    | Error (u, v) -> raise (Hit (u, Printf.sprintf "remove %d-%d" u v))
    | Ok () -> ());
    (match unilateral_add_eq ~alpha a with
    | Error (u, v) -> raise (Hit (u, Printf.sprintf "add %d-%d" u v))
    | Ok () -> ());
    List.iter
      (fun u ->
        let owned = Strategy.strategy_size a u in
        List.iter
          (fun v ->
            List.iter
              (fun w ->
                if w <> u && w <> v && not (Graph.has_edge g u w) then begin
                  let g' = Graph.add_edge (Graph.remove_edge g u v) u w in
                  let c = unilateral_cost ~alpha ~owned g' u in
                  if Cost.strictly_less c (current_cost ~alpha a u) then
                    raise (Hit (u, Printf.sprintf "swap %d-%d for %d-%d" u v u w))
                end)
              (vertices g))
          (Strategy.strategy a u))
      (vertices g);
    Ok ()
  with Hit (u, why) -> Error (u, why)
