(* One OCaml int per vertex: bit v of adj.(u) is the edge uv.  Everything
   the exhaustive searches touch per candidate graph — edge flips,
   connectivity, distance sums — runs on whole adjacency words at once, so
   a BFS level costs |frontier| ORs plus one popcount instead of a queue
   walk. *)

type t = { n : int; mutable m : int; adj : int array }

let max_n = 63

let check_size n name =
  if n < 0 then invalid_arg (Printf.sprintf "Bitgraph.%s: negative size" name);
  if n > max_n then
    invalid_arg (Printf.sprintf "Bitgraph.%s: size %d exceeds %d" name n max_n)

let check_vertex t u name =
  if u < 0 || u >= t.n then
    invalid_arg (Printf.sprintf "Bitgraph.%s: vertex %d out of range [0..%d)" name u t.n)

let create n =
  check_size n "create";
  { n; m = 0; adj = Array.make (max n 1) 0 }

let copy t = { t with adj = Array.copy t.adj }
let n t = t.n
let num_edges t = t.m

(* SWAR popcount over the 63-bit int domain: byte sums never exceed 63, so
   the multiply-accumulate trick needs no 64th bit. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let lowest_bit x = popcount ((x land (-x)) - 1)

let has_edge t u v =
  check_vertex t u "has_edge";
  check_vertex t v "has_edge";
  t.adj.(u) land (1 lsl v) <> 0

let add_edge t u v =
  check_vertex t u "add_edge";
  check_vertex t v "add_edge";
  if u = v then invalid_arg "Bitgraph.add_edge: loop";
  if t.adj.(u) land (1 lsl v) = 0 then begin
    t.adj.(u) <- t.adj.(u) lor (1 lsl v);
    t.adj.(v) <- t.adj.(v) lor (1 lsl u);
    t.m <- t.m + 1
  end

let remove_edge t u v =
  check_vertex t u "remove_edge";
  check_vertex t v "remove_edge";
  if u <> v && t.adj.(u) land (1 lsl v) <> 0 then begin
    t.adj.(u) <- t.adj.(u) land lnot (1 lsl v);
    t.adj.(v) <- t.adj.(v) land lnot (1 lsl u);
    t.m <- t.m - 1
  end

let flip_edge t u v =
  check_vertex t u "flip_edge";
  check_vertex t v "flip_edge";
  if u = v then invalid_arg "Bitgraph.flip_edge: loop";
  if t.adj.(u) land (1 lsl v) = 0 then begin
    t.adj.(u) <- t.adj.(u) lor (1 lsl v);
    t.adj.(v) <- t.adj.(v) lor (1 lsl u);
    t.m <- t.m + 1
  end
  else begin
    t.adj.(u) <- t.adj.(u) land lnot (1 lsl v);
    t.adj.(v) <- t.adj.(v) land lnot (1 lsl u);
    t.m <- t.m - 1
  end

let degree t u =
  check_vertex t u "degree";
  popcount t.adj.(u)

let neighbor_mask t u =
  check_vertex t u "neighbor_mask";
  t.adj.(u)

(* Expand one BFS level: union of the adjacency words of every frontier
   vertex, minus what is already visited. *)
let expand t frontier visited =
  let next = ref 0 in
  let f = ref frontier in
  while !f <> 0 do
    let u = lowest_bit !f in
    f := !f land (!f - 1);
    next := !next lor t.adj.(u)
  done;
  !next land lnot visited

let reach_mask t src =
  check_vertex t src "reach_mask";
  let visited = ref (1 lsl src) in
  let frontier = ref !visited in
  while !frontier <> 0 do
    let next = expand t !frontier !visited in
    visited := !visited lor next;
    frontier := next
  done;
  !visited

let is_connected t =
  t.n = 0 || popcount (reach_mask t 0) = t.n

(* Connectivity of the induced subgraph on V \ {v}: the same word-BFS,
   with [v]'s bit masked out of every expansion.  This is the cut-vertex
   test of the orderly enumeration's canonical-deletion rule, so it runs
   once per vertex per candidate graph. *)
let is_connected_without t v =
  check_vertex t v "is_connected_without";
  if t.n <= 2 then true
  else begin
    let avoid = lnot (1 lsl v) in
    let full = ((1 lsl t.n) - 1) land avoid in
    let src = if v = 0 then 1 else 0 in
    let visited = ref (1 lsl src) in
    let frontier = ref !visited in
    while !frontier <> 0 do
      let next = expand t !frontier !visited land avoid in
      visited := !visited lor next;
      frontier := next
    done;
    !visited = full
  end

let bfs t src =
  check_vertex t src "bfs";
  let dist = Array.make t.n (-1) in
  dist.(src) <- 0;
  let visited = ref (1 lsl src) in
  let frontier = ref !visited in
  let d = ref 0 in
  while !frontier <> 0 do
    let next = expand t !frontier !visited in
    incr d;
    let m = ref next in
    while !m <> 0 do
      let v = lowest_bit !m in
      m := !m land (!m - 1);
      dist.(v) <- !d
    done;
    visited := !visited lor next;
    frontier := next
  done;
  dist

let total_dist t src =
  check_vertex t src "total_dist";
  let visited = ref (1 lsl src) in
  let frontier = ref !visited in
  let d = ref 0 in
  let sum = ref 0 in
  while !frontier <> 0 do
    let next = expand t !frontier !visited in
    incr d;
    sum := !sum + (!d * popcount next);
    visited := !visited lor next;
    frontier := next
  done;
  { Paths.unreachable = t.n - popcount !visited; sum = !sum }

let agent_dist_sums t = Array.init t.n (fun u -> total_dist t u)

(* A [Graph.t] row is already a loop-free, symmetric neighbour list, so
   each word is the OR of its row's bits. *)
let of_graph g =
  let size = Graph.n g in
  check_size size "of_graph";
  let t = create size in
  for u = 0 to size - 1 do
    t.adj.(u) <- Graph.fold_neighbors (fun w v -> w lor (1 lsl v)) 0 g u
  done;
  t.m <- Graph.num_edges g;
  t

let to_graph t =
  let es = ref [] in
  for u = t.n - 1 downto 0 do
    (* only the bits above u, so each edge appears once as (u, v), u < v *)
    let m = ref (t.adj.(u) lsr (u + 1)) in
    while !m <> 0 do
      let v = u + 1 + lowest_bit !m in
      m := !m land (!m - 1);
      es := (u, v) :: !es
    done
  done;
  Graph.of_edges t.n !es

(* Triangles through u: for each neighbour v, common neighbours are a
   single AND of adjacency words.  Each triangle at u is counted twice. *)
let triangles t u =
  check_vertex t u "triangles";
  let count = ref 0 in
  let m = ref t.adj.(u) in
  while !m <> 0 do
    let v = lowest_bit !m in
    m := !m land (!m - 1);
    count := !count + popcount (t.adj.(u) land t.adj.(v))
  done;
  !count / 2

(* Isomorphism-invariant key: n, m, then per-vertex blocks
   (degree, triangle count, unreachable count, BFS level popcounts)
   sorted as strings.  The level popcounts carry the same information as
   the sorted distance row but fall out of the word-parallel BFS without
   materialising or sorting a distance array.  Everything is raw bytes
   (all values fit in a byte for n <= 63), so no formatting cost. *)
let vertex_block t u =
  let b = Bytes.create (t.n + 3) in
  Bytes.unsafe_set b 0 (Char.chr (popcount t.adj.(u)));
  Bytes.unsafe_set b 1 (Char.chr (min 255 (triangles t u)));
  let visited = ref (1 lsl u) in
  let frontier = ref !visited in
  let len = ref 3 in
  while !frontier <> 0 do
    let next = expand t !frontier !visited in
    if next <> 0 then begin
      Bytes.unsafe_set b !len (Char.chr (popcount next));
      incr len
    end;
    visited := !visited lor next;
    frontier := next
  done;
  Bytes.unsafe_set b 2 (Char.chr (t.n - popcount !visited));
  Bytes.sub_string b 0 !len

let invariant t =
  let blocks = Array.init t.n (vertex_block t) in
  Array.sort String.compare blocks;
  let buf = Buffer.create ((t.n * (t.n + 3)) + 4) in
  Buffer.add_char buf (Char.chr t.n);
  Buffer.add_char buf (Char.chr (t.m land 0xff));
  Buffer.add_char buf (Char.chr ((t.m lsr 8) land 0xff));
  Array.iter (Buffer.add_string buf) blocks;
  Buffer.contents buf

(* Hashed counterpart of [invariant] for the enumeration hot path: the
   same per-vertex information (degree, triangles, unreachable count,
   BFS level sizes) mixed into one int code per vertex, the codes sorted
   in place in a caller-supplied scratch array, then folded into a
   single int.  No allocation, no string compare, no buffer — this is
   what makes iso-dedup enumeration cheap (the string [invariant] was
   ~75% of [connected_graphs_iso]'s runtime).  Equal fingerprints are
   necessary-but-not-sufficient exactly like [invariant]; hash
   collisions merely send a few extra pairs to [isomorphic]. *)
let mix h x = (h * 0x1000193) lxor x

let fingerprint ?scratch t =
  let size = t.n in
  let scratch =
    match scratch with
    | Some a when Array.length a >= 2 * size -> a
    | Some _ -> invalid_arg "Bitgraph.fingerprint: scratch shorter than 2n"
    | None -> Array.make (max 1 (2 * size)) 0
  in
  (* degrees first (codes below read neighbours' degrees), then one int
     code per vertex mixing degree, neighbour-degree sums and triangle
     count; the degrees stay in [scratch.(0 .. n-1)] for the caller *)
  for u = 0 to size - 1 do
    scratch.(u) <- popcount t.adj.(u)
  done;
  for u = 0 to size - 1 do
    let a = t.adj.(u) in
    let s1 = ref 0 and s2 = ref 0 and tri = ref 0 in
    let m = ref a in
    while !m <> 0 do
      let v = lowest_bit !m in
      m := !m land (!m - 1);
      let dv = scratch.(v) in
      s1 := !s1 + dv;
      s2 := !s2 + (dv * dv);
      tri := !tri + popcount (a land t.adj.(v))
    done;
    let code = mix (mix (mix scratch.(u) !s1) !s2) !tri in
    scratch.(size + u) <- code
  done;
  (* insertion sort of the codes: allocation-free and fastest at the
     n <= 7 sizes the enumeration dedup runs at *)
  for i = size + 1 to (2 * size) - 1 do
    let x = scratch.(i) in
    let j = ref (i - 1) in
    while !j >= size && scratch.(!j) > x do
      scratch.(!j + 1) <- scratch.(!j);
      decr j
    done;
    scratch.(!j + 1) <- x
  done;
  let h = ref (mix t.n t.m) in
  for i = size to (2 * size) - 1 do
    h := mix !h scratch.(i)
  done;
  !h land max_int

(* Exact isomorphism on the bit representation: backtracking vertex
   placement in order of rarest degree class, with adjacency consistency
   checked by single-bit probes of whole adjacency words.  Exponential
   worst case like its Graph.t counterpart, but allocation-free per node
   and an order of magnitude faster on the n <= 7 dedup hot path. *)
let isomorphic a b =
  a.n = b.n && a.m = b.m
  && begin
       let size = a.n in
       if size = 0 then true
       else begin
         let da = Array.init size (fun u -> popcount a.adj.(u)) in
         let db = Array.init size (fun u -> popcount b.adj.(u)) in
         let ha = Array.make size 0 and hb = Array.make size 0 in
         Array.iter (fun d -> ha.(d) <- ha.(d) + 1) da;
         Array.iter (fun d -> hb.(d) <- hb.(d) + 1) db;
         ha = hb
         && begin
              let order = Array.init size (fun i -> i) in
              Array.sort
                (fun x y ->
                  let c = Int.compare ha.(da.(x)) ha.(da.(y)) in
                  if c <> 0 then c else Int.compare da.(y) da.(x))
                order;
              let image = Array.make size (-1) in
              let used = ref 0 in
              let rec place i =
                i = size
                ||
                let u = order.(i) in
                let rec try_v v =
                  v < size
                  && ((!used land (1 lsl v) = 0
                      && db.(v) = da.(u)
                      &&
                      let consistent = ref true in
                      for j = 0 to i - 1 do
                        let w = order.(j) in
                        if
                          (a.adj.(u) lsr w) land 1
                          <> (b.adj.(v) lsr image.(w)) land 1
                        then consistent := false
                      done;
                      !consistent
                      &&
                      (image.(u) <- v;
                       used := !used lor (1 lsl v);
                       place (i + 1)
                       ||
                       (used := !used land lnot (1 lsl v);
                        image.(u) <- -1;
                        false)))
                     || try_v (v + 1))
                in
                try_v 0
              in
              place 0
            end
       end
     end
