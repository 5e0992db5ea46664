let centers g =
  if not (Tree.is_tree g) || not (Paths.is_connected g) then
    invalid_arg "Iso.centers: not a connected tree";
  let size = Graph.n g in
  if size = 0 then []
  else if size = 1 then [ 0 ]
  else begin
    let deg = Array.init size (fun u -> Graph.degree g u) in
    let removed = Array.make size false in
    let leaves = ref [] in
    for u = size - 1 downto 0 do
      if deg.(u) <= 1 then leaves := u :: !leaves
    done;
    let remaining = ref size in
    let frontier = ref !leaves in
    while !remaining > 2 do
      let next = ref [] in
      let this_round = !frontier in
      List.iter
        (fun u ->
          removed.(u) <- true;
          decr remaining)
        this_round;
      List.iter
        (fun u ->
          Graph.iter_neighbors
            (fun v ->
              if not removed.(v) then begin
                deg.(v) <- deg.(v) - 1;
                if deg.(v) = 1 then next := v :: !next
              end)
            g u)
        this_round;
      frontier := List.sort_uniq Int.compare !next
    done;
    let acc = ref [] in
    for u = size - 1 downto 0 do
      if not removed.(u) then acc := u :: !acc
    done;
    !acc
  end

(* AHU canonical code of the tree rooted at [r]: "(" codes-of-children
   sorted ")". *)
let rooted_code g r =
  let t = Tree.root_at g r in
  let rec code u =
    let cs = Tree.children t u |> List.map code |> List.sort String.compare in
    "(" ^ String.concat "" cs ^ ")"
  in
  code r

let tree_code g =
  match centers g with
  | [] -> "()"
  | [ c ] -> rooted_code g c
  | [ c1; c2 ] ->
      let a = rooted_code g c1 and b = rooted_code g c2 in
      (* Mark the bicentral case so it cannot collide with a unicentral
         code. *)
      "2" ^ if String.compare a b <= 0 then a ^ b else b ^ a
  | _ -> assert false

let fingerprint g =
  let size = Graph.n g in
  (* The degree / triangle / distance-row data is computed on the
     bit-parallel kernel when the graph fits in machine words; the output
     string is identical to the generic path either way. *)
  let per_vertex =
    if size <= Bitgraph.max_n then begin
      let bg = Bitgraph.of_graph g in
      Array.init size (fun u ->
          let dist_row = Bitgraph.bfs bg u in
          Array.sort Int.compare dist_row;
          Printf.sprintf "%d|%d|%s" (Bitgraph.degree bg u) (Bitgraph.triangles bg u)
            (String.concat "," (Array.to_list (Array.map string_of_int dist_row))))
    end
    else begin
      let d = Paths.apsp g in
      let triangles u =
        let row = Graph.neighbors g u in
        let count = ref 0 in
        Array.iter
          (fun v ->
            Array.iter (fun w -> if v < w && Graph.has_edge g v w then incr count) row)
          row;
        !count
      in
      Array.init size (fun u ->
          let dist_row = Array.copy d.(u) in
          Array.sort Int.compare dist_row;
          Printf.sprintf "%d|%d|%s" (Graph.degree g u) (triangles u)
            (String.concat "," (Array.to_list (Array.map string_of_int dist_row))))
    end
  in
  Array.sort String.compare per_vertex;
  Printf.sprintf "n%d m%d %s" size (Graph.num_edges g)
    (String.concat ";" (Array.to_list per_vertex))

(* Exact isomorphism by backtracking: map vertices of [g] in order of a
   static ordering (rarest degree first), pruning on degree and adjacency
   consistency with already-mapped vertices. *)
let isomorphic g h =
  let size = Graph.n g in
  if size <> Graph.n h || Graph.num_edges g <> Graph.num_edges h then false
  else if size = 0 then true
  else begin
    let deg_seq gr =
      let d = Array.init size (Graph.degree gr) in
      let s = Array.copy d in
      Array.sort Int.compare s;
      (d, s)
    in
    let dg, sg = deg_seq g and dh, sh = deg_seq h in
    if sg <> sh then false
    else begin
      (* Order g's vertices by ascending degree-class size to fail fast. *)
      let class_size = Hashtbl.create 16 in
      Array.iter
        (fun d ->
          Hashtbl.replace class_size d (1 + Option.value ~default:0 (Hashtbl.find_opt class_size d)))
        dg;
      let order = Array.init size (fun i -> i) in
      Array.sort
        (fun a b ->
          let ca = Hashtbl.find class_size dg.(a) and cb = Hashtbl.find class_size dg.(b) in
          if ca <> cb then Int.compare ca cb else Int.compare dg.(b) dg.(a))
        order;
      let image = Array.make size (-1) in
      let used = Array.make size false in
      let rec place i =
        if i = size then true
        else begin
          let u = order.(i) in
          let ok = ref false in
          let v = ref 0 in
          while (not !ok) && !v < size do
            if (not used.(!v)) && dh.(!v) = dg.(u) then begin
              (* Adjacency to already-placed vertices must match. *)
              let consistent = ref true in
              for j = 0 to i - 1 do
                let w = order.(j) in
                if Graph.has_edge g u w <> Graph.has_edge h !v image.(w) then
                  consistent := false
              done;
              if !consistent then begin
                image.(u) <- !v;
                used.(!v) <- true;
                if place (i + 1) then ok := true
                else begin
                  used.(!v) <- false;
                  image.(u) <- -1
                end
              end
            end;
            incr v
          done;
          !ok
        end
      in
      place 0
    end
  end

(* Canonical representative of a free tree in near-linear time: root at
   the centre whose AHU code is smaller, then relabel in preorder with
   children visited in ascending subtree-code order.  Two isomorphic
   trees produce identical labelled graphs: the traversal is a function
   of the rooted code alone (ties among children have equal codes, hence
   isomorphic subtrees, hence identical emitted shapes). *)
let canonical_tree g =
  let root =
    match centers g with
    | [ c ] -> c
    | [ c1; c2 ] ->
        if String.compare (rooted_code g c1) (rooted_code g c2) <= 0 then c1 else c2
    | _ -> assert false
  in
  let t = Tree.root_at g root in
  let size = Graph.n g in
  let codes = Array.make size "" in
  let rec fill u =
    let cs = Tree.children t u in
    List.iter fill cs;
    let sorted = List.map (fun c -> codes.(c)) cs |> List.sort String.compare in
    codes.(u) <- "(" ^ String.concat "" sorted ^ ")"
  in
  fill root;
  let edges = ref [] in
  let next = ref 0 in
  let rec assign parent u =
    let lu = !next in
    incr next;
    (match parent with Some p -> edges := (p, lu) :: !edges | None -> ());
    Tree.children t u
    |> List.map (fun c -> (codes.(c), c))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.iter (fun (_, c) -> assign (Some lu) c)
  in
  assign None root;
  Graph.of_edges size !edges

(* The key is the lexicographically least row-major upper-triangle
   adjacency string over the permutations that list degrees descending.
   It is found by an ordered-partition search that places one vertex
   per position.  The unplaced positions are covered by contiguous
   cells (initially the runs of equal degree); the vertex at position
   [i] comes from the cell covering [i], and with it fixed, row [i] is
   least exactly when every later cell lists its non-neighbours before
   its neighbours.  So a step tries each vertex of that cell, splits
   every later cell into [non-neighbours][neighbours], keeps only the
   siblings whose row [i] is least, and drops a branch whose prefix
   already exceeds the best key.  Twins (N(u)\{v} = N(v)\{u}) in one
   cell are swapped by an automorphism that fixes every placed vertex,
   so their branches yield the same keys and only one is tried.  The
   result is byte-identical to trying every degree-descending
   permutation. *)
let canonical_key g =
  let size = Graph.n g in
  let adj = Bytes.make (size * size) '0' in
  for u = 0 to size - 1 do
    Graph.iter_neighbors (fun v -> Bytes.set adj ((u * size) + v) '1') g u
  done;
  let bit u v = Bytes.unsafe_get adj ((u * size) + v) in
  let twins u v =
    let rec go w = w = size || ((w = u || w = v || bit u w = bit v w) && go (w + 1)) in
    go 0
  in
  let len = size * (size - 1) / 2 in
  let key = Bytes.make len '0' in
  (* All ones is at least every key, and is the key of a clique. *)
  let best = Bytes.make len '1' in
  (* [key] against [best] on [0, stop). *)
  let rec compare_prefix k stop =
    if k = stop then 0
    else
      let c = Char.compare (Bytes.unsafe_get key k) (Bytes.unsafe_get best k) in
      if c <> 0 then c else compare_prefix (k + 1) stop
  in
  (* [order.(p)] is the vertex at position [p]; [cells] lists the
     [(start, stop)] cells covering [i, size) in position order. *)
  let rec place i order cells =
    if i >= size - 1 then begin
      if compare_prefix 0 len < 0 then Bytes.blit key 0 best 0 len
    end
    else begin
      let stop0 = match cells with (_, stop) :: _ -> stop | [] -> assert false in
      let row_len = size - 1 - i in
      (* Place [v] at [i]: the refined order, row [i] and the new cells. *)
      let refine v =
        let o = Array.copy order and row = Bytes.create row_len in
        o.(i) <- v;
        let split s members acc =
          let e = s + Array.length members in
          let mid = ref s in
          Array.iter
            (fun w ->
              if bit v w = '0' then begin
                o.(!mid) <- w;
                incr mid
              end)
            members;
          let p = ref !mid in
          Array.iter
            (fun w ->
              if bit v w = '1' then begin
                o.(!p) <- w;
                incr p
              end)
            members;
          Bytes.fill row (s - i - 1) (!mid - s) '0';
          Bytes.fill row (!mid - i - 1) (e - !mid) '1';
          let acc = if !mid > s then (s, !mid) :: acc else acc in
          if e > !mid then (!mid, e) :: acc else acc
        in
        let rest_of_cell =
          Array.of_list (List.filter (( <> ) v) (Array.to_list (Array.sub order i (stop0 - i))))
        in
        let acc = split (i + 1) rest_of_cell [] in
        let acc =
          List.fold_left
            (fun acc (s, e) -> split s (Array.sub order s (e - s)) acc)
            acc (List.tl cells)
        in
        (Bytes.unsafe_to_string row, o, List.rev acc)
      in
      let tried = ref [] and children = ref [] in
      for p = stop0 - 1 downto i do
        let v = order.(p) in
        if not (List.exists (twins v) !tried) then begin
          tried := v :: !tried;
          children := refine v :: !children
        end
      done;
      let least =
        List.fold_left
          (fun m (row, _, _) -> if String.compare row m < 0 then row else m)
          (let row, _, _ = List.hd !children in row)
          !children
      in
      let off = i * ((2 * size) - i - 1) / 2 in
      Bytes.blit_string least 0 key off row_len;
      List.iter
        (fun (row, o, cells') ->
          if String.equal row least && compare_prefix 0 (off + row_len) <= 0 then
            place (i + 1) o cells')
        !children
    end
  in
  let order = Array.init size (fun u -> u) in
  let deg = Array.init size (Graph.degree g) in
  Array.stable_sort (fun a b -> Int.compare deg.(b) deg.(a)) order;
  let cells = ref [] and s = ref 0 in
  for p = 1 to size do
    if p = size || deg.(order.(p)) <> deg.(order.(!s)) then begin
      cells := (!s, p) :: !cells;
      s := p
    end
  done;
  place 0 order (List.rev !cells);
  Printf.sprintf "%d/%s" size (Bytes.to_string best)

(* Rebuild the graph a canonical key denotes: the key is
   "n/upper-triangular bitstring" in row-major (i, j), i < j, order. *)
let graph_of_key key =
  match String.index_opt key '/' with
  | None -> invalid_arg "Iso.graph_of_key: malformed key"
  | Some slash ->
      let size =
        match int_of_string_opt (String.sub key 0 slash) with
        | Some n when n >= 0 -> n
        | Some _ | None -> invalid_arg "Iso.graph_of_key: malformed size"
      in
      let bits = String.sub key (slash + 1) (String.length key - slash - 1) in
      if String.length bits <> size * (size - 1) / 2 then
        invalid_arg "Iso.graph_of_key: bitstring length mismatch";
      let edges = ref [] in
      let k = ref 0 in
      for i = 0 to size - 1 do
        for j = i + 1 to size - 1 do
          if bits.[!k] = '1' then edges := (i, j) :: !edges;
          incr k
        done
      done;
      Graph.of_edges size !edges

let canonical_graph g =
  if Graph.n g <= 1 then g
  else if Tree.is_tree g && Paths.is_connected g then canonical_tree g
  else graph_of_key (canonical_key g)
