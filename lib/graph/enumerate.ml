(* Beyer–Hedetniemi successor on canonical level sequences, 0-based levels:
   the first sequence is the path [0; 1; ...; n-1], the last is the star
   [0; 1; 1; ...; 1].  The successor of L is found by taking p = the last
   position with L.(p) >= 2 and q = the last position before p with
   L.(q) = L.(p) - 1 (the parent of p), then repeating the block
   L.(q .. p-1) to fill positions p .. n-1.  [f] sees the one mutable
   level array and must not keep it. *)
let iter_level_sequences n f =
  let levels = Array.init n (fun i -> i) in
  let continue = ref true in
  while !continue do
    f levels;
    let p = ref (n - 1) in
    while !p >= 0 && levels.(!p) < 2 do
      decr p
    done;
    if !p < 0 then continue := false
    else begin
      let q = ref (!p - 1) in
      while levels.(!q) <> levels.(!p) - 1 do
        decr q
      done;
      let block = !p - !q in
      for i = !p to n - 1 do
        levels.(i) <- levels.(i - block)
      done
    end
  done

(* The parent of position i is the nearest j < i one level up; [last.(l)]
   tracks the latest position seen at level l, so one pass finds them all
   and the edges go to [Graph.of_edges] in one build. *)
let tree_of_levels levels =
  let n = Array.length levels in
  let last = Array.make n 0 in
  let edges = ref [] in
  for i = 1 to n - 1 do
    let l = levels.(i) in
    edges := (i, last.(l - 1)) :: !edges;
    last.(l) <- i
  done;
  Graph.of_edges n !edges

let iter_rooted_trees n f =
  if n < 0 then invalid_arg "Enumerate.iter_rooted_trees: negative size";
  if n > 0 then iter_level_sequences n (fun levels -> f (tree_of_levels levels, 0))

let rooted_tree_count n =
  let count = ref 0 in
  iter_rooted_trees n (fun _ -> incr count);
  !count

let wrap_code codes = "(" ^ String.concat "" (List.sort String.compare codes) ^ ")"

(* The AHU codes of the children of position [i] of a level sequence —
   [Iso.rooted_code] of [i]'s subtree is their [wrap_code] — paired with
   the position just past [i]'s subtree.  The child at position [skip] is
   stepped over without being coded. *)
let rec child_codes ?(skip = -1) levels i =
  let n = Array.length levels and li = levels.(i) in
  let rec kids j acc =
    if j < n && levels.(j) > li then
      if j = skip then begin
        let next = ref (j + 1) in
        while !next < n && levels.(!next) > levels.(j) do
          incr next
        done;
        kids !next acc
      end
      else
        let codes, next = child_codes levels j in
        kids next (wrap_code codes :: acc)
    else (acc, j)
  in
  kids (i + 1) []

(* A rooted tree from the Beyer–Hedetniemi stream is kept iff it is the
   canonical rooting of its free tree: the root (position 0) must be a
   centre, and for a bicentral tree the rooting with the smaller AHU code
   wins (a bicentral tree with isomorphic halves occurs once, with equal
   codes).  Every free tree therefore has exactly one kept rooting and the
   filter needs no seen-set, which makes the stream shardable and O(1) in
   memory.

   The decision reads the level array alone.  With h the maximum level,
   the root's child blocks (a block runs from one level-1 position to the
   next) are the root's subtrees: if two reach depth h the diameter 2h
   passes through the root and the root is the unique centre; if one
   block, at child c, reaches h and the next deepest reaches h - 1 (the
   root alone counts as depth 0) the centres are {0, c}; otherwise c is
   strictly more central than the root. *)
let canonical_rooting levels =
  let n = Array.length levels in
  n = 1
  ||
  let h = ref 0 in
  for i = 1 to n - 1 do
    if levels.(i) > !h then h := levels.(i)
  done;
  let h = !h in
  (* [deep]: blocks reaching h; [c]: the last such block's child; [second]:
     the deepest block below h *)
  let deep = ref 0 and c = ref 0 and second = ref 0 in
  let i = ref 1 in
  while !i < n do
    let start = !i and depth = ref levels.(!i) in
    incr i;
    while !i < n && levels.(!i) > 1 do
      if levels.(!i) > !depth then depth := levels.(!i);
      incr i
    done;
    if !depth = h then begin
      incr deep;
      c := start
    end
    else if !depth > !second then second := !depth
  done;
  !deep >= 2
  || !second = h - 1
     &&
     (* code(0) wraps c's subtree with the root's other children; code(c)
        wraps the root half (the root and those other children) with c's
        own children *)
     let c_kids, _ = child_codes levels !c in
     let others, _ = child_codes ~skip:!c levels 0 in
     String.compare
       (wrap_code (wrap_code c_kids :: others))
       (wrap_code (wrap_code others :: c_kids))
     <= 0

let check_shard name = function
  | None -> (0, 1)
  | Some (k, m) ->
      if m < 1 || k < 0 || k >= m then
        invalid_arg (Printf.sprintf "Enumerate.%s: bad shard %d/%d" name k m);
      (k, m)

let iter_free_trees ?shard n f =
  if n < 0 then invalid_arg "Enumerate.iter_free_trees: negative size";
  let k, m = check_shard "iter_free_trees" shard in
  if n = 0 then begin
    if k = 0 then f (Graph.create 0)
  end
  else begin
    let emit_range lo hi =
      let idx = ref 0 in
      iter_level_sequences n (fun levels ->
          if canonical_rooting levels then begin
            if !idx >= lo && !idx < hi then f (tree_of_levels levels);
            incr idx
          end)
    in
    if m = 1 then emit_range 0 max_int
    else begin
      (* Contiguous index slices need the total count first; the counting
         pass is the same filter with nothing built.  Concatenating the
         [m] slices in shard order reproduces the unsharded stream
         exactly, which is what the sweep merge's bit-identity rests on. *)
      let total = ref 0 in
      iter_level_sequences n (fun levels -> if canonical_rooting levels then incr total);
      emit_range (k * !total / m) ((k + 1) * !total / m)
    end
  end

let free_trees n =
  if n < 0 then invalid_arg "Enumerate.free_trees: negative size";
  if n > 20 then invalid_arg "Enumerate.free_trees: size too large";
  let out = ref [] in
  iter_free_trees n (fun g -> out := g :: !out);
  List.rev !out

let iter_labeled_trees n f =
  if n > 9 then invalid_arg "Enumerate.iter_labeled_trees: size too large";
  if n = 1 then f (Graph.create 1)
  else if n = 2 then f (Graph.add_edge (Graph.create 2) 0 1)
  else if n >= 3 then begin
    let code = Array.make (n - 2) 0 in
    let rec go i =
      if i = n - 2 then f (Gen.of_pruefer code)
      else
        for v = 0 to n - 1 do
          code.(i) <- v;
          go (i + 1)
        done
    in
    go 0
  end

(* Edge subsets are walked in numeric mask order, but each step only
   applies the single-bit delta between consecutive masks on one mutable
   Bitgraph: going from [mask - 1] to [mask] clears the trailing run of
   one-bits and sets the bit above it (amortised two edge flips per mask),
   instead of rebuilding the graph edge by edge.  Keeping the numeric
   order keeps the enumeration — and hence every downstream class
   representative — identical to the historical implementation. *)
let edge_slots n = n * (n - 1) / 2

let slot_endpoints n =
  let slots = edge_slots n in
  let us = Array.make (max 1 slots) 0 and vs = Array.make (max 1 slots) 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      us.(!k) <- u;
      vs.(!k) <- v;
      incr k
    done
  done;
  (us, vs)

let iter_connected_bitgraphs_range n ~lo ~hi f =
  if n > 7 then invalid_arg "Enumerate.iter_connected_bitgraphs: size too large";
  if n <= 0 then begin
    if n = 0 && lo <= 0 && hi > 0 then f (Bitgraph.create 0)
  end
  else begin
    let slots = edge_slots n in
    let lo = max 0 lo and hi = min hi (1 lsl slots) in
    if lo < hi then begin
      let us, vs = slot_endpoints n in
      (* build the first mask directly, then walk by one-bit deltas *)
      let bg = Bitgraph.create n in
      for j = 0 to slots - 1 do
        if (lo lsr j) land 1 = 1 then Bitgraph.add_edge bg us.(j) vs.(j)
      done;
      if Bitgraph.is_connected bg then f bg;
      for mask = lo + 1 to hi - 1 do
        let b = Bitgraph.lowest_bit mask in
        for j = 0 to b - 1 do
          Bitgraph.remove_edge bg us.(j) vs.(j)
        done;
        Bitgraph.add_edge bg us.(b) vs.(b);
        if Bitgraph.is_connected bg then f bg
      done
    end
  end

let iter_connected_bitgraphs n f =
  if n > 7 then invalid_arg "Enumerate.iter_connected_bitgraphs: size too large";
  if n <= 0 then begin
    if n = 0 then f (Bitgraph.create 0)
  end
  else iter_connected_bitgraphs_range n ~lo:0 ~hi:(1 lsl edge_slots n) f

let iter_connected_graphs n f =
  if n > 7 then invalid_arg "Enumerate.iter_connected_graphs: size too large";
  iter_connected_bitgraphs n (fun bg -> f (Bitgraph.to_graph bg))

(* Dedup buckets are keyed by the allocation-free bitgraph fingerprint
   (the string [Bitgraph.invariant] was ~75% of the enumeration runtime)
   and hold bitgraph snapshots, so the exact isomorphism test runs on
   words and conversion back to Graph.t happens only once per class.

   The accumulator is exposed so independent mask ranges can be deduped
   in parallel and merged: per-range accumulators keep first occurrences
   within their range, and merging left to right in mask order re-checks
   each later representative against the earlier ones — the survivor of
   every class is therefore its globally first representative, in the
   global first-occurrence order, exactly as in a sequential run. *)
type iso_acc = {
  (* class representatives with their degree arrays, keyed by fingerprint *)
  buckets : (int, (Bitgraph.t * int array) list) Hashtbl.t;
  mutable reps : Bitgraph.t list; (* reverse first-occurrence order *)
  mutable count : int;
  size : int;
  scratch : int array; (* 2n fingerprint scratch; degrees land in 0..n-1 *)
  order : int array; (* candidate vertex order for the matcher *)
  image : int array; (* candidate vertex -> representative vertex *)
}

let iso_acc_create n =
  {
    buckets = Hashtbl.create 1024;
    reps = [];
    count = 0;
    size = n;
    scratch = Array.make (max 1 (2 * n)) 0;
    order = Array.make (max 1 n) 0;
    image = Array.make (max 1 n) 0;
  }

(* Allocation-free exact isomorphism of the candidate [a] (degrees in
   [adeg], vertex order in [acc.order]) against a stored representative:
   backtracking placement with degree pruning, adjacency consistency by
   single-bit probes of whole adjacency words.  This replaces
   [Bitgraph.isomorphic] on the dedup hot path, where one confirmation
   per duplicate labelling is unavoidable (~26k calls at n = 6) and the
   general function's per-call allocations dominated the enumeration. *)
let iso_match acc a adeg b rdeg =
  let size = acc.size in
  let image = acc.image and order = acc.order in
  let used = ref 0 in
  let rec place i =
    i = size
    ||
    let u = order.(i) in
    let au = Bitgraph.neighbor_mask a u in
    let du = adeg.(u) in
    let rec try_v v =
      v < size
      && ((!used land (1 lsl v) = 0
          && rdeg.(v) = du
          &&
          let bv = Bitgraph.neighbor_mask b v in
          let ok = ref true in
          for j = 0 to i - 1 do
            let w = order.(j) in
            if (au lsr w) land 1 <> (bv lsr image.(w)) land 1 then ok := false
          done;
          !ok
          && (image.(u) <- v;
              used := !used lor (1 lsl v);
              place (i + 1)
              ||
              (used := !used land lnot (1 lsl v);
               false)))
         || try_v (v + 1))
    in
    try_v 0
  in
  place 0

(* [bg] is the enumeration's mutable scratch graph: snapshot on insert. *)
let iso_acc_add acc bg =
  let fp = Bitgraph.fingerprint ~scratch:acc.scratch bg in
  let insert bucket =
    let snapshot = Bitgraph.copy bg in
    let deg = Array.init acc.size (fun u -> acc.scratch.(u)) in
    Hashtbl.replace acc.buckets fp ((snapshot, deg) :: bucket);
    acc.reps <- snapshot :: acc.reps;
    acc.count <- acc.count + 1
  in
  match Hashtbl.find_opt acc.buckets fp with
  | None -> insert []
  | Some bucket ->
      (* candidate degrees are in scratch.(0 .. n-1); order vertices by
         degree descending (insertion sort) so the matcher prunes early *)
      let deg = acc.scratch and order = acc.order in
      for i = 0 to acc.size - 1 do
        let x = i in
        let j = ref (i - 1) in
        order.(i) <- x;
        while !j >= 0 && deg.(order.(!j)) < deg.(x) do
          order.(!j + 1) <- order.(!j);
          decr j
        done;
        order.(!j + 1) <- x
      done;
      if not (List.exists (fun (h, hdeg) -> iso_match acc bg deg h hdeg) bucket)
      then insert bucket

let iso_acc_merge a b =
  List.iter (iso_acc_add a) (List.rev b.reps);
  a

(* [reps] is reversed, so [rev_map] restores first-occurrence order. *)
let iso_acc_graphs acc = List.rev_map Bitgraph.to_graph acc.reps

let connected_iso_range n ~lo ~hi =
  let acc = iso_acc_create n in
  iter_connected_bitgraphs_range n ~lo ~hi (iso_acc_add acc);
  acc

(* ------------------------------------------------------------------ *)
(* Orderly (canonical-augmentation) generation of connected graphs     *)
(* ------------------------------------------------------------------ *)

(* One representative per isomorphism class, McKay-style: a connected
   graph on [n] vertices is produced by augmenting a connected graph on
   [n - 1] vertices with one new vertex and a nonempty neighbour set,
   and the augmentation is accepted only when the new vertex lies in the
   {e canonical removable orbit} of the child — an isomorphism-invariant
   choice of one automorphism orbit of non-cut vertices.  Consequences:

   - every class has exactly one parent class (delete any vertex of the
     canonical orbit), so the augmentation forest is a tree over classes
     and subtrees can be expanded independently (the shard layer);
   - two accepted children of the same parent are isomorphic iff their
     neighbour sets lie in one [Aut(parent)]-orbit, so duplicate
     elimination is local to a parent (a small list), never global;
   - accepted children of distinct parents are never isomorphic.

   This visits [sum of classes per level] candidates instead of the
   [2^(n(n-1)/2)] edge subsets of the legacy walk — at n = 8, ~10^5
   augmentations against 2^28 masks. *)

let orderly_max_n = 9

(* The canonical removable orbit: among non-cut vertices, the invariant-
   minimal class, refined (only on ties) by the exact pointed canonical
   code below.  Both stages are isomorphism-invariant, and vertices of
   one orbit always compare equal, so the selected set is exactly one
   automorphism orbit of non-cut vertices. *)

(* Cheap per-vertex invariant: (degree, triangles, distance profile),
   then one refinement round over the sorted neighbour invariants. *)
let vertex_invariants bg =
  let n = Bitgraph.n bg in
  let base =
    Array.init n (fun u ->
        let t = Bitgraph.total_dist bg u in
        (Bitgraph.degree bg u, Bitgraph.triangles bg u, t.Paths.sum))
  in
  Array.init n (fun u ->
      let nbrs = ref [] in
      let m = ref (Bitgraph.neighbor_mask bg u) in
      while !m <> 0 do
        let v = Bitgraph.lowest_bit !m in
        m := !m land (!m - 1);
        nbrs := base.(v) :: !nbrs
      done;
      (base.(u), List.sort compare !nbrs))

(* Exact tie-break: the minimal packed upper-triangular adjacency code
   over all labellings that place [v] last.  Bit order is columnwise
   (for i = 1..n-1, for j < i: the (p_j, p_i) bit), so every prefix is a
   function of the vertices placed so far and the search prunes against
   the best code's prefix.  Codes of two vertices are equal iff the two
   pointed graphs are isomorphic, i.e. iff the vertices share an orbit.
   [n * (n-1) / 2 <= 36] bits at [orderly_max_n], so a code is one int. *)
let pointed_code bg v =
  let n = Bitgraph.n bg in
  let total_bits = n * (n - 1) / 2 in
  let best = ref max_int in
  let perm = Array.make (max 1 n) (-1) in
  let used = ref (1 lsl v) in
  let rec go i code bits =
    if i = n - 1 then begin
      let nm = Bitgraph.neighbor_mask bg v in
      let c = ref code in
      for j = 0 to n - 2 do
        c := (!c lsl 1) lor ((nm lsr perm.(j)) land 1)
      done;
      if !c < !best then best := !c
    end
    else
      for w = 0 to n - 1 do
        if !used land (1 lsl w) = 0 then begin
          let nm = Bitgraph.neighbor_mask bg w in
          let c = ref code in
          for j = 0 to i - 1 do
            c := (!c lsl 1) lor ((nm lsr perm.(j)) land 1)
          done;
          let bits = bits + i in
          if !c <= !best asr (total_bits - bits) then begin
            perm.(i) <- w;
            used := !used lor (1 lsl w);
            go (i + 1) !c bits;
            used := !used land lnot (1 lsl w)
          end
        end
      done
  in
  if n <= 1 then 0
  else begin
    go 0 0 0;
    !best
  end

(* Accept iff the new vertex [n - 1] is in the canonical removable
   orbit.  The new vertex is always removable (deleting it restores the
   connected parent), so only the minimality tests can reject. *)
let orderly_accept bg =
  let n = Bitgraph.n bg in
  let k = n - 1 in
  let inv = vertex_invariants bg in
  let removable = Array.init n (fun v -> Bitgraph.is_connected_without bg v) in
  let invk = inv.(k) in
  let ties = ref [] in
  let minimal = ref true in
  for v = n - 2 downto 0 do
    if !minimal && removable.(v) then begin
      let c = compare inv.(v) invk in
      if c < 0 then minimal := false else if c = 0 then ties := v :: !ties
    end
  done;
  !minimal
  && (!ties = []
     ||
     let ck = pointed_code bg k in
     List.for_all (fun v -> pointed_code bg v >= ck) !ties)

(* Accepted children of one parent class, in neighbour-mask order,
   deduped within the parent; [f] receives a fresh snapshot it may keep.
   The scratch child graph walks masks by xor deltas on one mutable
   Bitgraph, exactly like the legacy edge-mask walk. *)
let iter_orderly_children parent f =
  let np = Bitgraph.n parent in
  let n = np + 1 in
  if n > orderly_max_n then
    invalid_arg "Enumerate.iter_orderly_children: size too large";
  let child = Bitgraph.create n in
  for u = 0 to np - 1 do
    let m = ref (Bitgraph.neighbor_mask parent u) in
    while !m <> 0 do
      let v = Bitgraph.lowest_bit !m in
      m := !m land (!m - 1);
      if u < v then Bitgraph.add_edge child u v
    done
  done;
  let acc = iso_acc_create n in
  let prev = ref 0 in
  for mask = 1 to (1 lsl np) - 1 do
    let delta = ref (!prev lxor mask) in
    prev := mask;
    while !delta <> 0 do
      let b = Bitgraph.lowest_bit !delta in
      delta := !delta land (!delta - 1);
      Bitgraph.flip_edge child b (n - 1)
    done;
    if orderly_accept child then begin
      let before = acc.count in
      iso_acc_add acc child;
      if acc.count > before then f (List.hd acc.reps)
    end
  done

(* All classes at one level, in orderly order: parents in order, each
   parent's accepted children in mask order.  Rebuilt from K1 on every
   call — the whole forest below n = 8 is ~12k graphs. *)
let orderly_level n =
  if n > orderly_max_n then invalid_arg "Enumerate.orderly_level: size too large";
  if n < 0 then invalid_arg "Enumerate.orderly_level: negative size";
  if n <= 1 then [ Bitgraph.create n ]
  else begin
    let rec level k =
      if k = 1 then [ Bitgraph.create 1 ]
      else
        List.concat_map
          (fun p ->
            let out = ref [] in
            iter_orderly_children p (fun c -> out := c :: !out);
            List.rev !out)
          (level (k - 1))
    in
    level n
  end

let orderly_parents n = orderly_level n

let iter_orderly_connected ?shard n f =
  if n < 0 then invalid_arg "Enumerate.iter_orderly_connected: negative size";
  if n > orderly_max_n then
    invalid_arg "Enumerate.iter_orderly_connected: size too large";
  let k, m = check_shard "iter_orderly_connected" shard in
  if n <= 1 then begin
    if k = 0 then f (Bitgraph.create n)
  end
  else begin
    (* Shards split the augmentation forest by contiguous blocks of
       level-(n-1) parents: every class at level n sits below exactly
       one parent, so the blocks partition the classes, and block order
       concatenates to the unsharded order. *)
    let parents = orderly_level (n - 1) in
    let p = List.length parents in
    let lo = k * p / m and hi = (k + 1) * p / m in
    List.iteri
      (fun i parent -> if i >= lo && i < hi then iter_orderly_children parent f)
      parents
  end

let connected_graphs_orderly ?shard n =
  let out = ref [] in
  iter_orderly_connected ?shard n (fun bg -> out := bg :: !out);
  List.rev_map Bitgraph.to_graph !out

let connected_graphs_iso n = connected_graphs_orderly n
