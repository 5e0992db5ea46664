(** The per-agent cost kernel the bilateral checkers are functorized
    over.  Split from {!Game_sig} (which re-exports it) so that {!Cost}
    can implement it without a module cycle: [Cost] sits below the move
    vocabulary, while [Game_sig.GAME] speaks {!Move} and {!Verdict}.

    See {!Game_sig} for the laws a metric must satisfy; in short,
    [strictly_less] must rank agents exactly as the game does, the
    three pricing entry points must agree on identical graphs, and the
    pruning hooks ([gain_improves], [net_edge_cap],
    [could_join_coalition]) must be sound over-approximations — a
    metric may be slower by answering permissively, but never loses
    witnesses. *)

module type METRIC = sig
  type agent
  (** The cost of one agent; ordered, never inspected structurally by
      the checkers. *)

  val of_bits : alpha:float -> Bitgraph.t -> int -> agent
  (** Price an agent on the bitgraph's current graph (the word-parallel
      fast path for [n <= Bitgraph.max_n]), exact across edge flips. *)

  val of_oracle : alpha:float -> Dist_oracle.t -> int -> agent
  (** Price an agent on the oracle's current graph — O(1) on a cached
      row, exact across edge flips. *)

  val of_graph : alpha:float -> Graph.t -> int -> agent
  (** Price an agent with a fresh BFS (the outcome-enumeration path). *)

  val strictly_less : agent -> agent -> bool
  (** [strictly_less a b]: is [a] a strict improvement over [b]? *)

  val gain_improves : alpha:float -> int -> bool
  (** [gain_improves ~alpha gain]: does decreasing an agent's distance
      sum by [gain] (within her component) strictly outweigh paying for
      one extra edge?  Must be monotone in [gain]. *)

  val net_edge_cap : alpha:float -> size:int -> agent -> int
  (** [net_edge_cap ~alpha ~size c]: sound upper bound on the net number
      of extra edges an agent at cost [c] in a [size]-agent graph can buy
      in one improving move. *)

  val could_join_coalition : alpha:float -> size:int -> agent -> bool
  (** Must hold for every agent some coalition move strictly improves;
      agents failing it are excluded from coalition enumeration. *)
end
