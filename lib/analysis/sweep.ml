type worst = {
  rho : float;
  witness : Graph.t option;
  stable_count : int;
  checked : int;
  exhausted : int;
}

let empty = { rho = 0.; witness = None; stable_count = 0; checked = 0; exhausted = 0 }

type family = Trees | Connected | Explicit of Graph.t list

type spec = {
  family : family;
  sizes : int list;
  concepts : Concept.t list;
  alphas : float list;
  budget : int option;
  domains : int option;
  shard : (int * int) option;
}

type cell = {
  size : int;
  concept : string;
  alpha : float;
  worst : worst;
  cache_hits : int;
  wall : float;
}

type totals = {
  total_checked : int;
  total_cache_hits : int;
  total_stable : int;
  total_exhausted : int;
  total_wall : float;
}

type outcome = { cells : cell list; totals : totals }

(* ------------------------------------------------------------------ *)
(* The per-cell fold                                                   *)
(* ------------------------------------------------------------------ *)

(* Telemetry counters (see Obs: no-ops without a sink, and never read
   back by the fold, so the worst cells stay bit-identical with tracing
   on or off).  [checked] counts every candidate the fold consumed
   (fresh or cached); [decided] counts fresh checker calls only, so
   heartbeat deltas give candidates-decided-per-second. *)
let c_cells = Obs.counter "sweep.cells"
let c_checked = Obs.counter "sweep.checked"
let c_decided = Obs.counter "sweep.decided"
let c_stable = Obs.counter "sweep.stable"
let c_exhausted = Obs.counter "sweep.exhausted"
let c_cache_hits = Obs.counter "sweep.cache_hits"

(* Counters add; the maximum keeps the earlier witness on ties (the
   per-item update only replaces on strict improvement), so merging chunk
   folds left to right reproduces the sequential fold bit for bit. *)
let merge a b =
  {
    rho = (if b.rho > a.rho then b.rho else a.rho);
    witness = (if b.rho > a.rho then b.witness else a.witness);
    stable_count = a.stable_count + b.stable_count;
    checked = a.checked + b.checked;
    exhausted = a.exhausted + b.exhausted;
  }

(* Canonical graph6 per candidate, through the store's memo table; the
   canonical-form searches for graphs the store has never seen fan out
   across domains, and the results are journaled so the next run pays
   table lookups only.  Also returns the number of memo misses. *)
let canon_keys ?domains store graphs =
  let keys = Array.of_list (List.map (Cert_store.find_canon store) graphs) in
  let missing_graphs = List.filteri (fun i _ -> keys.(i) = None) graphs in
  let computed = Parallel.map ?domains Encode.canonical_graph6 missing_graphs in
  List.iter2 (fun g g6 -> Cert_store.record_canon store g g6) missing_graphs computed;
  let rem = ref computed in
  let g6s =
    Array.map
      (function
        | Some g6 -> g6
        | None ->
            let g6 = List.hd !rem in
            rem := List.tl !rem;
            g6)
      keys
  in
  (g6s, List.length missing_graphs)

(* The game-generic cell primitive.  The fold prices states with
   [G.check] / [G.rho] and reports witnesses as created graphs
   ([G.graph]); with a store, decisions are content-addressed by the
   canonical graph6 of the created graph under the game's name — a
   complete address for [G.of_graph]-canonical states (the bilateral
   game, and the unilateral game under canonical ownership).  Applied
   to {!Bilateral} this is bit-identical to the historical
   monomorphic fold.  [keyed] pairs the store with the canonical graph6
   of every state, in order, so a caller running several cells over
   one candidate list canonicalises it once. *)
let fold_cell (type s c)
    (module G : Game_sig.GAME with type state = s and type concept = c) ?budget ?domains
    ~keyed ~concept ~alpha (states : s list) =
  let step acc x =
    let acc = { acc with checked = acc.checked + 1 } in
    Obs.incr c_checked;
    Obs.incr c_decided;
    match G.check ?budget ~alpha concept x with
    | Verdict.Stable ->
        let r = G.rho ~alpha concept x in
        let acc = { acc with stable_count = acc.stable_count + 1 } in
        Obs.incr c_stable;
        if r > acc.rho then { acc with rho = r; witness = Some (G.graph x) } else acc
    | Verdict.Unstable _ -> acc
    | Verdict.Exhausted _ ->
        Obs.incr c_exhausted;
        { acc with exhausted = acc.exhausted + 1 }
  in
  (* Same accumulation as [step], replaying an already-decided entry.
     For a stable state [entry.rho] equals what [step] would compute
     (cached entries round-trip bit-exactly), so the two paths agree. *)
  let tally acc x (entry : Cert_store.entry) =
    let acc = { acc with checked = acc.checked + 1 } in
    Obs.incr c_checked;
    match entry.Cert_store.verdict with
    | Verdict.Stable ->
        let acc = { acc with stable_count = acc.stable_count + 1 } in
        Obs.incr c_stable;
        if entry.Cert_store.rho > acc.rho then
          { acc with rho = entry.Cert_store.rho; witness = Some (G.graph x) }
        else acc
    | Verdict.Unstable _ -> acc
    | Verdict.Exhausted _ ->
        Obs.incr c_exhausted;
        { acc with exhausted = acc.exhausted + 1 }
  in
  match keyed with
  | None -> (Parallel.fold ?domains ~f:step ~merge ~init:empty states, 0)
  | Some (s, g6s) ->
      let garr = Array.of_list states in
      let cname = G.concept_name concept in
      let keys =
        Array.map
          (fun canon_g6 ->
            Cert_store.cert_key ~game:G.name ~concept:cname ~alpha ~budget ~canon_g6 ())
          g6s
      in
      let found = Array.map (fun key -> Cert_store.find s ~key) keys in
      let hits = Array.fold_left (fun n e -> if e = None then n else n + 1) 0 found in
      let miss_idx = ref [] in
      Array.iteri (fun i e -> if e = None then miss_idx := i :: !miss_idx) found;
      let miss_idx = List.rev !miss_idx in
      Obs.add c_cache_hits hits;
      let computed =
        Parallel.map ?domains
          (fun i ->
            let x = garr.(i) in
            Obs.incr c_decided;
            { Cert_store.verdict = G.check ?budget ~alpha concept x;
              rho = G.rho ~alpha concept x })
          miss_idx
      in
      (* Journal fresh certificates in enumeration order: a kill at any
         point leaves a prefix, which is a valid resume checkpoint. *)
      List.iter2
        (fun i entry ->
          Cert_store.record ~game:G.name s ~key:keys.(i) ~canon_g6:g6s.(i) ~concept:cname
            ~alpha ~budget entry;
          found.(i) <- Some entry)
        miss_idx computed;
      let acc = ref empty in
      Array.iteri (fun i entry -> acc := tally !acc garr.(i) (Option.get entry)) found;
      (!acc, hits)

let run_cell_game (type s c)
    (module G : Game_sig.GAME with type state = s and type concept = c) ?budget ?domains
    ?store ~concept ~alpha (states : s list) =
  let keyed =
    Option.map (fun s -> (s, fst (canon_keys ?domains s (List.map G.graph states)))) store
  in
  fold_cell (module G) ?budget ?domains ~keyed ~concept ~alpha states

let run_cell ?budget ?domains ?store ~concept ~alpha graphs =
  run_cell_game (module Bilateral) ?budget ?domains ?store ~concept ~alpha graphs

(* ------------------------------------------------------------------ *)
(* Spec execution                                                      *)
(* ------------------------------------------------------------------ *)

(* Candidates the sharded enumeration has emitted so far: the heartbeat
   rate of this counter is the per-shard progress signal (candidates per
   second) the CLI's --heartbeat surfaces while a shard enumerates. *)
let c_shard_candidates = Obs.counter "sweep.shard.candidates"

(* The k-th of m contiguous index slices of a [total]-element sequence.
   The same formula Enumerate uses, so a sweep shard and the enumerator
   shard agree on boundaries; concatenating slices in shard order is the
   whole sequence. *)
let shard_bounds total = function
  | None -> (0, total)
  | Some (k, m) ->
      if m < 1 || k < 0 || k >= m then
        invalid_arg (Printf.sprintf "Sweep: bad shard %d/%d" k m);
      (k * total / m, (k + 1) * total / m)

let slice lo hi xs = List.filteri (fun i _ -> i >= lo && i < hi) xs

(* Parallel orderly enumeration: the level-(n-1) parent classes are the
   roots of the augmentation forest; each parent's accepted children are
   independent of every other parent's (children of non-isomorphic
   parents are never isomorphic — see Enumerate), so contiguous parent
   blocks expand across the domain pool with no cross-block dedup and
   concatenate, in block order, to exactly the sequential orderly
   enumeration.  The same block formula splits the forest across
   processes ([?shard]) and across domains, so the candidate list — and
   every fold downstream of it — is bit-identical for any (shard count,
   domain count) split. *)
let connected_orderly_par ?domains ?shard n =
  let d =
    match domains with Some d -> max 1 d | None -> Parallel.default_domains ()
  in
  if n <= 6 || d <= 1 then begin
    let out = ref [] in
    Enumerate.iter_orderly_connected ?shard n (fun bg ->
        Obs.incr c_shard_candidates;
        out := Bitgraph.to_graph bg :: !out);
    List.rev !out
  end
  else begin
    let parents = Enumerate.orderly_parents (n - 1) in
    let lo, hi = shard_bounds (List.length parents) shard in
    let block = slice lo hi parents in
    let len = hi - lo in
    let chunks = max 1 (min (d * 8) len) in
    let pieces =
      List.init chunks (fun b ->
          slice (b * len / chunks) ((b + 1) * len / chunks) block)
    in
    Parallel.map ~domains:d
      (fun piece ->
        List.concat_map
          (fun parent ->
            let out = ref [] in
            Enumerate.iter_orderly_children parent (fun child ->
                Obs.incr c_shard_candidates;
                out := Bitgraph.to_graph child :: !out);
            Obs.tick ();
            List.rev !out)
          piece)
      pieces
    |> List.concat
  end

let free_trees_sharded ?shard n =
  let out = ref [] in
  Enumerate.iter_free_trees ?shard n (fun g ->
      Obs.incr c_shard_candidates;
      Obs.tick ();
      out := g :: !out);
  List.rev !out

(* Candidate enumeration, memoised through the store: at small sizes
   enumerating the family costs more than checking it, so a warm run
   must skip enumeration too.  The journaled graph6 list preserves the
   labelled graphs and their order exactly, keeping the fold (and hence
   [worst]) bit-identical to a fresh enumeration.  A sharded run
   journals under its own key ([family/n@k/m]) — a shard's slice is not
   the whole family, and must never answer for it. *)
let candidates ?store ?domains ?shard family n =
  match family with
  | Explicit graphs ->
      let lo, hi = shard_bounds (List.length graphs) shard in
      if (lo, hi) = (0, List.length graphs) then graphs else slice lo hi graphs
  | Trees | Connected -> (
      let name, enum =
        match family with
        | Trees -> ("trees", free_trees_sharded ?shard)
        | Connected -> ("connected", connected_orderly_par ?domains ?shard)
        | Explicit _ -> assert false
      in
      let key =
        match shard with
        | None -> Printf.sprintf "%s/%d" name n
        | Some (k, m) -> Printf.sprintf "%s/%d@%d/%d" name n k m
      in
      match Option.bind store (fun s -> Cert_store.find_family s key) with
      | Some graphs -> graphs
      | None ->
          let span_name, shard_args =
            match shard with
            | None -> ("sweep.enumerate", [])
            | Some (k, m) -> ("sweep.shard", [ ("k", Json.Int k); ("m", Json.Int m) ])
          in
          let graphs =
            Obs.span span_name
              ~args:
                ([ ("family", Json.String name); ("n", Json.Int n) ] @ shard_args)
              (fun () -> enum n)
          in
          Option.iter (fun s -> Cert_store.record_family s key graphs) store;
          graphs)

let groups ?store spec =
  match spec.family with
  | Explicit _ -> [ (0, candidates ?store ?shard:spec.shard spec.family 0) ]
  | Trees | Connected ->
      List.map
        (fun n ->
          (n, candidates ?store ?domains:spec.domains ?shard:spec.shard spec.family n))
        spec.sizes

let totals_of_cells cells =
  List.fold_left
    (fun t c ->
      {
        total_checked = t.total_checked + c.worst.checked;
        total_cache_hits = t.total_cache_hits + c.cache_hits;
        total_stable = t.total_stable + c.worst.stable_count;
        total_exhausted = t.total_exhausted + c.worst.exhausted;
        total_wall = t.total_wall +. c.wall;
      })
    {
      total_checked = 0;
      total_cache_hits = 0;
      total_stable = 0;
      total_exhausted = 0;
      total_wall = 0.;
    }
    cells

let run ?store spec =
  let cells =
    Obs.span "sweep.run"
      ~args:
        ([
           ("sizes", Json.List (List.map (fun n -> Json.Int n) spec.sizes));
           ( "concepts",
             Json.List (List.map (fun c -> Json.String (Concept.name c)) spec.concepts) );
           ("alphas", Json.List (List.map Json.number spec.alphas));
         ]
        @
        match spec.shard with
        | None -> []
        | Some (k, m) -> [ ("shard", Json.String (Printf.sprintf "%d/%d" k m)) ])
    @@ fun () ->
    List.concat_map
      (fun (size, graphs) ->
        (* Canonicalised once per group and shared by every cell: the
           keys depend on the candidate alone.  So the store's
           [cert_store.canon_hits]/[canon_misses] count each candidate
           once per group, not once per cell.  An empty grid
           canonicalises (and journals) nothing. *)
        let keyed =
          match store with
          | Some s when spec.concepts <> [] && spec.alphas <> [] ->
              let g6s, _ =
                Obs.span "sweep.canon"
                  ~args:[ ("n", Json.Int size); ("candidates", Json.Int (List.length graphs)) ]
                  ~result_args:(fun (_, misses) -> [ ("misses", Json.Int misses) ])
                  (fun () -> canon_keys ?domains:spec.domains s graphs)
              in
              Some (s, g6s)
          | Some _ | None -> None
        in
        List.concat_map
          (fun concept ->
            List.map
              (fun alpha ->
                let t0 = Unix.gettimeofday () in
                let worst, cache_hits =
                  Obs.span "sweep.cell"
                    ~args:
                      [
                        ("n", Json.Int size);
                        ("concept", Json.String (Concept.name concept));
                        ("alpha", Json.number alpha);
                        ("candidates", Json.Int (List.length graphs));
                      ]
                    (fun () ->
                      fold_cell (module Bilateral) ?budget:spec.budget
                        ?domains:spec.domains ~keyed ~concept ~alpha graphs)
                in
                Obs.incr c_cells;
                Obs.tick ();
                {
                  size;
                  concept = Concept.name concept;
                  alpha;
                  worst;
                  cache_hits;
                  wall = Unix.gettimeofday () -. t0;
                })
              spec.alphas)
          spec.concepts)
      (groups ?store spec)
  in
  { cells; totals = totals_of_cells cells }

(* ------------------------------------------------------------------ *)
(* JSON views                                                          *)
(* ------------------------------------------------------------------ *)

(* ρ is ∞ when the only stable candidates are disconnected (possible
   with [Explicit] families), so it goes through [Json.number]; wall
   times are the one nondeterministic field, and [~wall:false] omits
   them so two runs of the same spec byte-compare (the CLI's
   [--no-wall], and the determinism-under-tracing fuzz bank). *)
let worst_to_json w =
  Json.Obj
    [
      ("rho", Json.number w.rho);
      ( "witness",
        match w.witness with Some g -> Json.String (Encode.to_graph6 g) | None -> Json.Null );
      ("stable", Json.Int w.stable_count); ("checked", Json.Int w.checked);
      ("exhausted", Json.Int w.exhausted);
    ]

let cell_to_json ?(wall = true) c =
  Json.Obj
    ([
       ("n", Json.Int c.size); ("concept", Json.String c.concept);
       ("alpha", Json.number c.alpha); ("worst", worst_to_json c.worst);
       ("cache_hits", Json.Int c.cache_hits);
     ]
    @ if wall then [ ("wall_s", Json.Float c.wall) ] else [])

let outcome_to_json ?(wall = true) o =
  Json.Obj
    [
      ("cells", Json.List (List.map (cell_to_json ~wall) o.cells));
      ( "totals",
        Json.Obj
          ([
             ("checked", Json.Int o.totals.total_checked);
             ("cache_hits", Json.Int o.totals.total_cache_hits);
             ("stable", Json.Int o.totals.total_stable);
             ("exhausted", Json.Int o.totals.total_exhausted);
           ]
          @ if wall then [ ("wall_s", Json.Float o.totals.total_wall) ] else []) );
    ]

(* ------------------------------------------------------------------ *)
(* Shard merging                                                       *)
(* ------------------------------------------------------------------ *)

(* Parsing [cell_to_json] back.  [Json.float_repr] round-trips doubles
   bit-exactly, so a parsed cell carries exactly the floats the shard
   computed — the precondition for the merged outcome byte-comparing
   against an unsharded run. *)
let cell_of_json j =
  let ( let* ) = Result.bind in
  let field obj name conv =
    match Option.bind (Json.member name obj) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or malformed %S" name)
  in
  let* size = field j "n" Json.as_int in
  (* Kept as the raw name: merge only ever compares names, and not
     resolving lets one merge binary combine shards from any game. *)
  let* concept = field j "concept" Json.as_string in
  let* alpha = field j "alpha" Json.as_number in
  let* wj =
    match Json.member "worst" j with
    | Some (Json.Obj _ as w) -> Ok w
    | _ -> Error "missing or malformed \"worst\""
  in
  let* rho = field wj "rho" Json.as_number in
  let* witness =
    match Json.member "witness" wj with
    | Some Json.Null -> Ok None
    | Some (Json.String g6) -> (
        match Encode.of_graph6 g6 with
        | g -> Ok (Some g)
        | exception Invalid_argument msg -> Error msg)
    | _ -> Error "worst.witness must be a graph6 string or null"
  in
  let* stable_count = field wj "stable" Json.as_int in
  let* checked = field wj "checked" Json.as_int in
  let* exhausted = field wj "exhausted" Json.as_int in
  let* cache_hits = field j "cache_hits" Json.as_int in
  let wall =
    match Option.bind (Json.member "wall_s" j) Json.as_float with
    | Some w -> w
    | None -> 0.
  in
  Ok
    {
      size; concept; alpha;
      worst = { rho; witness; stable_count; checked; exhausted };
      cache_hits;
      wall;
    }

(* Totals are recomputed from the cells rather than trusted — they are
   a pure function of the cells in [run] too, so the round-trip stays
   exact and a hand-edited totals block cannot smuggle in a lie. *)
let outcome_of_json j =
  match Option.bind (Json.member "cells" j) Json.as_list with
  | None -> Error "outcome: missing \"cells\" list"
  | Some cell_js ->
      let rec go acc i = function
        | [] -> Ok (List.rev acc)
        | cj :: rest -> (
            match cell_of_json cj with
            | Ok c -> go (c :: acc) (i + 1) rest
            | Error e -> Error (Printf.sprintf "cell %d: %s" i e))
      in
      Result.map
        (fun cells -> { cells; totals = totals_of_cells cells })
        (go [] 0 cell_js)

(* Shard outcomes run the same (size × concept × α) grid over disjoint
   contiguous candidate slices, in shard order; per cell, [merge] is
   exactly the parallel fold's combiner, so folding the shard cells
   left to right reconstructs the unsharded sequential fold bit for
   bit (counters add; the maximum keeps the earliest shard's witness
   on ties, which is the earliest candidate in enumeration order). *)
let merge_outcomes = function
  | [] -> Error "nothing to merge"
  | first :: rest ->
      let ( let* ) = Result.bind in
      let merge_cell i a b =
        if a.size <> b.size || a.concept <> b.concept || a.alpha <> b.alpha then
          Error
            (Printf.sprintf
               "cell %d mismatch: (n=%d, %s, alpha=%s) vs (n=%d, %s, alpha=%s) — \
                shards must run identical specs"
               i a.size a.concept (Json.float_repr a.alpha) b.size b.concept
               (Json.float_repr b.alpha))
        else
          Ok
            {
              a with
              worst = merge a.worst b.worst;
              cache_hits = a.cache_hits + b.cache_hits;
              wall = a.wall +. b.wall;
            }
      in
      let merge_pair a b =
        if List.length a.cells <> List.length b.cells then
          Error
            (Printf.sprintf "cell count mismatch: %d vs %d — shards must run identical specs"
               (List.length a.cells) (List.length b.cells))
        else
          let rec go acc i xs ys =
            match (xs, ys) with
            | [], [] -> Ok (List.rev acc)
            | x :: xs, y :: ys ->
                let* c = merge_cell i x y in
                go (c :: acc) (i + 1) xs ys
            | _ -> assert false
          in
          Result.map
            (fun cells -> { cells; totals = totals_of_cells cells })
            (go [] 0 a.cells b.cells)
      in
      List.fold_left
        (fun acc o ->
          let* a = acc in
          merge_pair a o)
        (Ok first) rest
