(** Graph isomorphism for small graphs.

    Used to deduplicate enumerated graphs up to isomorphism, to verify
    that dynamics reached a state isomorphic to a known construction, and
    to content-address certificates.  Three tools are provided: an exact
    linear-time canonical code for free trees (AHU rooted at the tree
    centre), an exact canonical form for general small graphs (an
    ordered-partition refinement search), and a backtracking isomorphism
    test with an invariant fingerprint. *)

val tree_code : Graph.t -> string
(** [tree_code g] is a canonical code of the free tree [g]: two trees get
    the same code iff they are isomorphic.
    @raise Invalid_argument if [g] is not a connected tree. *)

val rooted_code : Graph.t -> int -> string
(** [rooted_code g r] is the AHU canonical code of the tree [g] rooted at
    [r]: two rooted trees get the same code iff they are isomorphic as
    rooted trees.  The streaming free-tree filter compares the codes of
    the two centres of a bicentral tree to accept exactly one rooting. *)

val centers : Graph.t -> int list
(** [centers g] lists the one or two centre vertices of the connected tree
    [g] (obtained by repeatedly stripping leaves).
    @raise Invalid_argument if [g] is not a connected tree. *)

val fingerprint : Graph.t -> string
(** [fingerprint g] is an isomorphism-invariant string: equal fingerprints
    are necessary (not sufficient) for isomorphism.  Combines the degree
    sequence, the sorted multiset of distance rows and per-vertex triangle
    counts. *)

val isomorphic : Graph.t -> Graph.t -> bool
(** [isomorphic g h] decides isomorphism exactly by backtracking with
    degree and neighbourhood pruning.  Exponential worst case; intended for
    [n ≲ 12]. *)

val canonical_key : Graph.t -> string
(** [canonical_key g] is an exact canonical form: equal keys iff
    isomorphic.  The key is ["n/bits"], where [bits] is the
    lexicographically least row-major upper-triangle adjacency string
    over the permutations that list degrees in descending order.  It is
    found by an ordered-partition refinement search: a vertex placed at
    position [i] splits every later cell into non-neighbours then
    neighbours, only the siblings with the least row [i] are expanded,
    branches whose prefix exceeds the best key are dropped, and only
    one vertex per twin class is tried.  The result is byte-identical
    to trying every such permutation (the test suite keeps that brute
    force as the reference), so keys stored by earlier versions still
    match.  Typical graphs take microseconds; the search stays
    exponential in the worst case, roughly in proportion to the
    automorphism group (the Petersen graph, the icosahedron and the
    4-cube each take milliseconds). *)

val canonical_graph : Graph.t -> Graph.t
(** [canonical_graph g] is a canonical representative of [g]'s
    isomorphism class: [Graph.equal (canonical_graph g) (canonical_graph h)]
    iff [isomorphic g h].  Free trees go through the AHU code
    (near-linear, good to [n <= 18]); other graphs through
    {!canonical_key}.  The labelled result is what the
    certificate store content-addresses, via {!Encode.canonical_graph6}. *)
