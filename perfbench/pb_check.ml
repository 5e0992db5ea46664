(* Output checks.  Each returns the list of failures it found (empty
   when the output is correct); every failure counts in the run's
   [failed] total, so a corrupted reply or digest can never pass
   silently. *)

let md5 s = Digest.to_hex (Digest.string s)

let digest ~what ~expected s =
  let got = md5 s in
  if got = expected then [] else [ Printf.sprintf "%s digest %s, recorded %s" what got expected ]

(* sweep-trees: every cell examined the whole family. *)
let cells_checked ~expected (o : Sweep.outcome) =
  List.filter_map
    (fun (c : Sweep.cell) ->
      if c.worst.checked = expected then None
      else
        Some
          (Printf.sprintf "cell %s a=%g checked %d of %d" c.concept c.alpha c.worst.checked
             expected))
    o.cells

let rec strip_cache_hits = function
  | Json.Obj kv ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "cache_hits" then None else Some (k, strip_cache_hits v))
           kv)
  | Json.List l -> Json.List (List.map strip_cache_hits l)
  | j -> j

(* sweep-store: the warm pass reproduces the cold pass's bytes except
   for [cache_hits], and answers every candidate of every cell from the
   store.  Both outcomes are rendered without wall times. *)
let warm_matches_cold ~(cold : Sweep.outcome) ~(warm : Sweep.outcome) =
  let bytes o = Json.to_string (strip_cache_hits (Sweep.outcome_to_json ~wall:false o)) in
  let same =
    if bytes cold = bytes warm then [] else [ "warm outcome bytes differ from cold" ]
  in
  let all_hits =
    List.filter_map
      (fun (c : Sweep.cell) ->
        if c.cache_hits = c.worst.checked then None
        else
          Some
            (Printf.sprintf "warm cell %s a=%g: %d cache hits for %d checked" c.concept
               c.alpha c.cache_hits c.worst.checked))
      warm.cells
  in
  same @ all_hits

let moves_bytes moves = Json.to_string (Json.List (List.map Move.to_json moves))

(* dynamics: the run spent exactly its evaluation budget, and each
   accepted move, replayed from the start graph, improves its movers
   when priced from scratch ({!Move.is_improving}) — independent of the
   engine's caches. *)
let dynamics_run ~what ~budget ~alpha ~start (r : Engine.result) =
  let evals = Engine.evals r in
  let budget_ok =
    if evals = budget then []
    else [ Printf.sprintf "%s: %d evals, budget %d" what evals budget ]
  in
  let rec replay g i = function
    | [] -> []
    | m :: rest ->
        if Move.is_improving ~alpha g m then replay (Move.apply g m) (i + 1) rest
        else [ Printf.sprintf "%s: move %d (%s) does not improve" what i (Move.to_string m) ]
  in
  budget_ok @ replay start 0 r.moves

(* serve-mixed, per reply: not an error payload, and parseable. *)
let reply_ok line =
  match Api.parse_reply_line line with
  | Ok (_, Api.Error { code; message }) ->
      [ Printf.sprintf "error reply %s: %s" (Api.error_code_name code) message ]
  | Ok _ -> []
  | Error e -> [ Printf.sprintf "unparseable reply %S: %s" line e ]

(* serve-mixed: a repeated request gets the first reply's bytes, and a
   first-time reply equals the payload computed in-process. *)
let same_bytes ~what ~expected got =
  if expected = got then [] else [ Printf.sprintf "%s %S differs from %S" what got expected ]
