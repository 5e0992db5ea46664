open Helpers

let random_permutation r n =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

(* The definition [Iso.canonical_key] must reproduce byte for byte: the
   lexicographically least row-major upper-triangle string over every
   permutation that lists degrees descending, found by trying them all.
   Kept here as the reference the refinement search is checked
   against. *)
let brute_canonical_key g =
  let size = Graph.n g in
  let deg = Array.init size (Graph.degree g) in
  let buf = Bytes.create (size * (size - 1) / 2) in
  let encode perm =
    let k = ref 0 in
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        Bytes.set buf !k (if Graph.has_edge g perm.(i) perm.(j) then '1' else '0');
        incr k
      done
    done;
    Bytes.to_string buf
  in
  let best = ref None in
  let perm = Array.make size (-1) in
  let used = Array.make size false in
  let target = Array.copy deg in
  Array.sort (fun a b -> Int.compare b a) target;
  let rec go i =
    if i = size then begin
      let key = Printf.sprintf "%d/%s" size (encode perm) in
      match !best with
      | Some b when String.compare b key <= 0 -> ()
      | _ -> best := Some key
    end
    else
      for v = 0 to size - 1 do
        if (not used.(v)) && deg.(v) = target.(i) then begin
          perm.(i) <- v;
          used.(v) <- true;
          go (i + 1);
          used.(v) <- false
        end
      done
  in
  if size = 0 then "0/"
  else begin
    go 0;
    Option.get !best
  end

let check_against_reference name g =
  Alcotest.(check string) name (brute_canonical_key g) (Iso.canonical_key g)

(* G(n, p) with no connectivity repair, so isolated vertices and
   several components occur. *)
let gnp r n p =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float r 1. < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges n !edges

let symmetric_graphs () =
  let k44 =
    Graph.of_edges 8 (List.concat_map (fun u -> List.init 4 (fun j -> (u, 4 + j))) [ 0; 1; 2; 3 ])
  in
  (* Q3: u ~ v iff their labels differ in exactly one bit. *)
  let cube =
    Graph.of_edges 8
      (List.concat_map
         (fun u -> List.map (fun b -> (u, u lor b)) (List.filter (fun b -> u land b = 0) [ 1; 2; 4 ]))
         (List.init 8 Fun.id))
  in
  let wagner = Graph.add_edges (Gen.cycle 8) (List.init 4 (fun i -> (i, i + 4))) in
  [
    ("K8", Gen.clique 8); ("empty 8", Graph.create 8); ("K4,4", k44); ("C8", Gen.cycle 8);
    ("Q3", cube); ("Wagner", wagner); ("2xC4", Graph.disjoint_union (Gen.cycle 4) (Gen.cycle 4));
  ]

(* MD5 of [Encode.canonical_graph6] over [Enumerate.connected_graphs_orderly n],
   in enumeration order, joined by newlines.  Certificates are stored
   under these strings, so a drift in the canonical form would orphan
   every existing store. *)
let canonical_digest n =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map Encode.canonical_graph6 (Enumerate.connected_graphs_orderly n))))

let suite =
  [
    tc "centers of paths" (fun () ->
        Alcotest.(check (list int)) "odd" [ 2 ] (Iso.centers (Gen.path 5));
        Alcotest.(check (list int)) "even" [ 2; 3 ] (Iso.centers (Gen.path 6));
        Alcotest.(check (list int)) "single" [ 0 ] (Iso.centers (Graph.create 1));
        Alcotest.(check (list int)) "edge" [ 0; 1 ] (Iso.centers (Gen.path 2)));
    tc "centers of star and spider" (fun () ->
        Alcotest.(check (list int)) "star" [ 0 ] (Iso.centers (Gen.star 8));
        Alcotest.(check (list int)) "spider" [ 0 ] (Iso.centers (Gen.spider ~legs:3 ~leg_len:3)));
    tc "center differs from median in general" (fun () ->
        (* broom: long handle with heavy brush; median sits at the brush,
           center midway along the handle *)
        let g = Gen.broom ~handle:7 ~bristles:8 in
        check_int "median" 6 (Tree.median g);
        check_true "center not median"
          (not (List.mem (Tree.median g) (Iso.centers g))));
    tc "tree_code invariant under relabelling" (fun () ->
        let r = rng 17 in
        for _ = 1 to 40 do
          let n = 2 + Random.State.int r 12 in
          let g = Gen.random_tree r n in
          let g' = Graph.relabel g (random_permutation r n) in
          Alcotest.(check string) "same code" (Iso.tree_code g) (Iso.tree_code g')
        done);
    tc "tree_code separates non-isomorphic trees" (fun () ->
        check_false "path vs star"
          (String.equal (Iso.tree_code (Gen.path 5)) (Iso.tree_code (Gen.star 5)));
        check_true "2-leg spider IS a path"
          (String.equal
             (Iso.tree_code (Gen.spider ~legs:2 ~leg_len:2))
             (Iso.tree_code (Gen.path 5)));
        check_false "double star vs path"
          (String.equal (Iso.tree_code (Gen.double_star 2 2)) (Iso.tree_code (Gen.path 6))));
    tc "tree_code rejects non-trees" (fun () ->
        check_raises_invalid "cycle" (fun () -> ignore (Iso.tree_code (Gen.cycle 4))));
    tc "isomorphic accepts relabellings" (fun () ->
        let r = rng 23 in
        for _ = 1 to 30 do
          let n = 2 + Random.State.int r 9 in
          let g = Gen.random_connected r n ~p:0.4 in
          let g' = Graph.relabel g (random_permutation r n) in
          check_true "isomorphic" (Iso.isomorphic g g')
        done);
    tc "isomorphic rejects different graphs" (fun () ->
        check_false "path vs star" (Iso.isomorphic (Gen.path 5) (Gen.star 5));
        check_false "C6 vs 2xC3"
          (Iso.isomorphic (Gen.cycle 6) (Graph.disjoint_union (Gen.cycle 3) (Gen.cycle 3)));
        check_false "different sizes" (Iso.isomorphic (Gen.path 3) (Gen.path 4)));
    tc "isomorphic distinguishes same-degree-sequence graphs" (fun () ->
        (* C6 vs two triangles share the degree sequence (all 2s) *)
        let c6 = Gen.cycle 6 in
        let tri2 = Graph.disjoint_union (Gen.cycle 3) (Gen.cycle 3) in
        check_false "not isomorphic" (Iso.isomorphic c6 tri2));
    tc "fingerprint invariant and discriminating" (fun () ->
        let r = rng 29 in
        for _ = 1 to 20 do
          let n = 3 + Random.State.int r 8 in
          let g = Gen.random_connected r n ~p:0.4 in
          let g' = Graph.relabel g (random_permutation r n) in
          Alcotest.(check string) "invariant" (Iso.fingerprint g) (Iso.fingerprint g')
        done;
        check_false "path vs star"
          (String.equal (Iso.fingerprint (Gen.path 5)) (Iso.fingerprint (Gen.star 5))));
    tc "canonical_key is a canonical form" (fun () ->
        let r = rng 31 in
        for _ = 1 to 20 do
          let n = 2 + Random.State.int r 7 in
          let g = Gen.random_connected r n ~p:0.4 in
          let g' = Graph.relabel g (random_permutation r n) in
          Alcotest.(check string) "equal keys" (Iso.canonical_key g) (Iso.canonical_key g')
        done;
        check_false "distinct graphs, distinct keys"
          (String.equal (Iso.canonical_key (Gen.path 4)) (Iso.canonical_key (Gen.star 4))));
    tc "canonical_key equals the reference on connected n<=7" (fun () ->
        let r = rng 43 in
        for n = 1 to 7 do
          List.iter
            (fun g ->
              check_against_reference "as enumerated" g;
              check_against_reference "relabelled" (Graph.relabel g (random_permutation r n)))
            (Enumerate.connected_graphs_orderly n)
        done);
    tc "canonical_key equals the reference on G(n,p)" (fun () ->
        let r = rng 47 in
        for n = 0 to 8 do
          List.iter
            (fun p ->
              for _ = 1 to 12 do
                check_against_reference (Printf.sprintf "G(%d, %g)" n p) (gnp r n p)
              done)
            [ 0.15; 0.35; 0.5; 0.65; 0.85 ]
        done);
    tc "canonical_key equals the reference on symmetric graphs" (fun () ->
        let r = rng 53 in
        List.iter
          (fun (name, g) ->
            check_against_reference name g;
            check_against_reference (name ^ " relabelled")
              (Graph.relabel g (random_permutation r (Graph.n g))))
          (symmetric_graphs ()));
    tc "canonical graph6 of connected n=6..8 is pinned" (fun () ->
        List.iter
          (fun (n, digest) ->
            Alcotest.(check string) (Printf.sprintf "n=%d" n) digest (canonical_digest n))
          [
            (6, "4f3fab8c9b9044fe5428121fc3d63d33");
            (7, "7ac3035e1d083365b6157294f10ade2d");
            (8, "10a76d4550ce73c2a60172950fe79266");
          ]);
    tc "canonical_graph is relabelling-invariant" (fun () ->
        let r = rng 41 in
        for _ = 1 to 20 do
          let n = 2 + Random.State.int r 6 in
          let g =
            if Random.State.bool r then Gen.random_tree r n
            else Gen.random_connected r n ~p:0.4
          in
          let g' = Graph.relabel g (random_permutation r n) in
          check_graph "same canonical form" (Iso.canonical_graph g) (Iso.canonical_graph g');
          check_true "isomorphic to the original" (Iso.isomorphic g (Iso.canonical_graph g))
        done);
    tc "canonical_graph6 separates non-isomorphic graphs" (fun () ->
        let gs = Enumerate.connected_graphs_iso 5 in
        let keys = List.map Encode.canonical_graph6 gs in
        check_int "one key per class" (List.length gs)
          (List.length (List.sort_uniq String.compare keys)));
    tc "graph6 roundtrip small" (fun () ->
        List.iter
          (fun g -> check_graph "roundtrip" g (Encode.of_graph6 (Encode.to_graph6 g)))
          [
            Graph.create 0; Graph.create 1; Gen.path 2; Gen.cycle 5; Gen.star 9;
            Gen.clique 6; Graph.of_edges 4 [ (0, 3); (1, 2) ];
          ]);
    tc "graph6 roundtrip random" (fun () ->
        let r = rng 37 in
        for _ = 1 to 30 do
          let n = 1 + Random.State.int r 20 in
          let g = Gen.random_connected r n ~p:0.3 in
          check_graph "roundtrip" g (Encode.of_graph6 (Encode.to_graph6 g))
        done);
    tc "graph6 long form for n > 62" (fun () ->
        let g = Gen.star 100 in
        let s = Encode.to_graph6 g in
        check_int "long prefix" 126 (Char.code s.[0]);
        check_graph "roundtrip" g (Encode.of_graph6 s));
    tc "graph6 known value for C5" (fun () ->
        Alcotest.(check string) "C5" "Dhc" (Encode.to_graph6 (Gen.cycle 5)));
    tc "of_graph6 rejects malformed input" (fun () ->
        check_raises_invalid "empty" (fun () -> ignore (Encode.of_graph6 ""));
        check_raises_invalid "truncated" (fun () -> ignore (Encode.of_graph6 "D"));
        check_raises_invalid "bad char" (fun () -> ignore (Encode.of_graph6 "D\x01\x01\x01")));
  ]
