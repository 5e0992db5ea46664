open Helpers

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* A fresh per-test store directory; cleaned on entry so reruns of the
   suite never see a previous run's journals. *)
let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bncg-test-store-%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  dir

let with_store dir f =
  let s = Cert_store.open_store dir in
  Fun.protect ~finally:(fun () -> Cert_store.close s) (fun () -> f s)

let spec =
  {
    Sweep.family = Sweep.Connected;
    sizes = [ 5 ];
    concepts = [ Concept.PS; Concept.BGE ];
    alphas = [ 1.; 4.; 16. ];
    budget = None;
    domains = None;
    shard = None;
  }

(* Bit-level signature of a result: float bits, witness graph6, counters. *)
let worst_sig (w : Sweep.worst) =
  ( Int64.bits_of_float w.rho,
    Option.map Encode.to_graph6 w.witness,
    w.stable_count,
    w.checked,
    w.exhausted )

let outcome_sig (o : Sweep.outcome) =
  List.map
    (fun (c : Sweep.cell) ->
      (c.size, c.concept, Int64.bits_of_float c.alpha, worst_sig c.worst))
    o.Sweep.cells

let journal_files dir =
  Sys.readdir dir
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort String.compare
  |> List.map (Filename.concat dir)

let suite =
  [
    tc "cert store keeps every key string apart" (fun () ->
        (* Digest keys are held as raw bytes; any other string must
           still address its own certificate, across a reopen too. *)
        let dir = fresh_dir "keys" in
        let digest = Cert_store.cert_key ~concept:"PS" ~alpha:2. ~budget:None ~canon_g6:"Dhc" () in
        let keys =
          [ digest; String.uppercase_ascii digest; Digest.from_hex digest; "k"; "" ]
        in
        let entry i = { Cert_store.verdict = Verdict.Stable; rho = float_of_int i } in
        let record s =
          List.iteri
            (fun i key ->
              Cert_store.record s ~key ~canon_g6:"Dhc" ~concept:"PS" ~alpha:2. ~budget:None
                (entry i))
            keys
        in
        let check s =
          check_int "one cert per key" (List.length keys) (Cert_store.cert_count s);
          List.iteri
            (fun i key ->
              check_true (Printf.sprintf "key %d" i) (Cert_store.find s ~key = Some (entry i)))
            keys
        in
        with_store dir (fun s ->
            record s;
            check s);
        with_store dir check);
    tc "cert store round-trips through reopen" (fun () ->
        let dir = fresh_dir "roundtrip" in
        let canon_g6 = "Dhc" in
        let concept = Concept.PS and alpha = 2.0 and budget = None in
        let key = Cert_store.cert_key ~concept:(Concept.name concept) ~alpha ~budget ~canon_g6 () in
        let entry =
          {
            Cert_store.verdict = Verdict.Unstable (Move.Remove { agent = 0; target = 1 });
            rho = 1.1555555555555554;
          }
        in
        with_store dir (fun s ->
            check_true "empty store misses" (Cert_store.find s ~key = None);
            Cert_store.record s ~key ~canon_g6 ~concept:(Concept.name concept) ~alpha ~budget entry;
            check_true "hit after record" (Cert_store.find s ~key = Some entry));
        with_store dir (fun s ->
            check_int "one cert loaded" 1 (Cert_store.cert_count s);
            match Cert_store.find s ~key with
            | None -> Alcotest.fail "cert lost across reopen"
            | Some e ->
                check_true "verdict survives" (e.Cert_store.verdict = entry.Cert_store.verdict);
                Alcotest.(check int64)
                  "rho bits survive"
                  (Int64.bits_of_float entry.Cert_store.rho)
                  (Int64.bits_of_float e.Cert_store.rho)))
    ;
    tc "family memo round-trips through reopen" (fun () ->
        let dir = fresh_dir "family" in
        let graphs = Enumerate.free_trees 6 in
        with_store dir (fun s ->
            check_true "miss before record" (Cert_store.find_family s "trees/6" = None);
            Cert_store.record_family s "trees/6" graphs);
        with_store dir (fun s ->
            match Cert_store.find_family s "trees/6" with
            | None -> Alcotest.fail "family lost across reopen"
            | Some graphs' ->
                check_int "same count" (List.length graphs) (List.length graphs');
                List.iter2 (check_graph "same graph, same order") graphs graphs'))
    ;
    tc "store-backed sweep is bit-identical to plain" (fun () ->
        let dir = fresh_dir "identity" in
        let plain = Sweep.run spec in
        let cold = with_store dir (fun s -> Sweep.run ~store:s spec) in
        let warm = with_store dir (fun s -> Sweep.run ~store:s spec) in
        check_true "cold == plain" (outcome_sig cold = outcome_sig plain);
        check_true "warm == plain" (outcome_sig warm = outcome_sig plain);
        check_int "cold all misses" 0 cold.Sweep.totals.total_cache_hits;
        check_int "warm all hits" warm.Sweep.totals.total_checked
          warm.Sweep.totals.total_cache_hits)
    ;
    tc "killed journal resumes bit-identically" (fun () ->
        let dir = fresh_dir "resume" in
        let plain = Sweep.run spec in
        ignore (with_store dir (fun s -> Sweep.run ~store:s spec));
        (* Simulate a kill: chop the journal mid-line, losing its tail. *)
        let journal =
          match List.rev (journal_files dir) with
          | last :: _ -> last
          | [] -> Alcotest.fail "no journal written"
        in
        let size = (Unix.stat journal).Unix.st_size in
        check_true "journal is non-trivial" (size > 100);
        Unix.truncate journal (size - 37);
        let resumed = with_store dir (fun s -> Sweep.run ~store:s spec) in
        check_true "resumed == plain" (outcome_sig resumed = outcome_sig plain);
        check_true "resume reused the surviving prefix"
          (resumed.Sweep.totals.total_cache_hits > 0);
        check_true "resume recomputed the lost tail"
          (resumed.Sweep.totals.total_cache_hits < resumed.Sweep.totals.total_checked);
        (* After the resume run journaled the recomputed tail, the store
           is whole again: a further run is all cache hits. *)
        let again = with_store dir (fun s -> Sweep.run ~store:s spec) in
        check_true "again == plain" (outcome_sig again = outcome_sig plain);
        check_int "again all hits" again.Sweep.totals.total_checked
          again.Sweep.totals.total_cache_hits)
    ;
    tc "batched journal resumes from any cut or duplicated line" (fun () ->
        (* The store flushes once per batch, so a kill can stop the
           journal at any byte of the batch in flight.  Cutting a cold
           journal by hand reproduces each such stop without timing: at
           every line boundary of one cell, at mid-line offsets (4096
           and 65536 among them), and with a line written twice. *)
        let spec = { spec with Sweep.sizes = [ 6 ]; alphas = [ 1.; 4. ] } in
        let plain = Sweep.run spec in
        let cold_dir = fresh_dir "batched-cold" in
        let read_journal () =
          match journal_files cold_dir with
          | [ j ] -> In_channel.with_open_bin j In_channel.input_all
          | _ -> Alcotest.fail "expected one journal"
        in
        let flushed =
          with_store cold_dir (fun s ->
              ignore (Sweep.run ~store:s spec);
              read_journal ())
        in
        let bytes = read_journal () in
        check_true "the sweep flushed its last batch" (String.equal flushed bytes);
        let size = String.length bytes in
        check_true "journal spans 64 KiB" (size > 65536);
        (* (start, end) of every line, [end] at its newline. *)
        let lines =
          let rec go acc start =
            match String.index_from_opt bytes start '\n' with
            | None -> List.rev acc
            | Some stop -> go ((start, stop) :: acc) (stop + 1)
          in
          go [] 0
        in
        let field name line =
          match Json.of_string line with
          | Ok j -> Option.map Json.to_string (Json.member name j)
          | Error _ -> None
        in
        let text (start, stop) = String.sub bytes start (stop - start) in
        let is_cert l = field "kind" (text l) = Some {|"cert"|} in
        let cell =
          List.filter
            (fun l ->
              is_cert l
              && field "concept" (text l) = Some {|"PS"|}
              && field "alpha" (text l) = Some "4.0")
            lines
        in
        check_int "one line per candidate" 112 (List.length cell);
        let boundaries = fst (List.hd cell) :: List.map (fun (_, stop) -> stop + 1) cell in
        let mid (start, stop) = start + ((stop - start) / 2) in
        let cuts =
          boundaries
          @ [ 4096; 65536; fst (List.hd cell) + 1; mid (List.nth cell 50); size - 1 ]
        in
        let resume label journal ~hits =
          let dir = fresh_dir "batched-resume" in
          Unix.mkdir dir 0o755;
          Out_channel.with_open_bin (Filename.concat dir "journal-0000.jsonl") (fun oc ->
              output_string oc journal);
          let o = with_store dir (fun s -> Sweep.run ~store:s spec) in
          rm_rf dir;
          check_true (label ^ ": resumed == plain") (outcome_sig o = outcome_sig plain);
          check_int (label ^ ": every surviving certificate hit") hits
            o.Sweep.totals.total_cache_hits
        in
        (* A line cut before its newline still parses when it is
           whole, so it counts as surviving. *)
        let surviving cut = List.length (List.filter (fun l -> is_cert l && snd l <= cut) lines) in
        List.iter
          (fun cut ->
            resume (Printf.sprintf "cut at %d" cut) (String.sub bytes 0 cut) ~hits:(surviving cut))
          cuts;
        let all = List.length (List.filter is_cert lines) in
        let dup = List.nth cell 7 in
        resume "duplicated line" (bytes ^ text dup ^ "\n") ~hits:all;
        let cut = List.nth boundaries 20 in
        resume "duplicated line after a cut"
          (String.sub bytes 0 cut ^ text dup ^ "\n")
          ~hits:(surviving cut))
    ;
    tc "Poa.run with a store equals without" (fun () ->
        let dir = fresh_dir "poa" in
        let bare = Poa.run ~concept:Concept.PS ~alpha:2.0 (Poa.Trees 7) in
        let stored =
          with_store dir (fun s -> Poa.run ~store:s ~concept:Concept.PS ~alpha:2.0 (Poa.Trees 7))
        in
        let rerun =
          with_store dir (fun s -> Poa.run ~store:s ~concept:Concept.PS ~alpha:2.0 (Poa.Trees 7))
        in
        check_true "stored == bare" (worst_sig stored = worst_sig bare);
        check_true "warm rerun == bare" (worst_sig rerun = worst_sig bare))
    ;
    tc "empty, missing and dangling journals load as an empty store" (fun () ->
        (* Regression: an empty journal file, a *.jsonl entry that cannot
           be opened (dangling symlink), and no file at all must all
           yield the same empty store instead of raising Sys_error. *)
        let dir = fresh_dir "empty-journal" in
        Cert_store.close (Cert_store.open_store dir);
        (* no record: open_store must not have created a journal file *)
        check_int "read-only run leaves no journal" 0 (List.length (journal_files dir));
        let empty = Filename.concat dir "journal-0000.jsonl" in
        let oc = open_out empty in
        close_out oc;
        let s = Cert_store.open_store dir in
        check_int "empty journal file == empty store" 0 (Cert_store.cert_count s);
        Cert_store.close s;
        Unix.symlink (Filename.concat dir "no-such-file") (Filename.concat dir "gone.jsonl");
        let s = Cert_store.open_store dir in
        check_int "dangling symlink == empty store" 0 (Cert_store.cert_count s);
        (* and the store still works for writing afterwards *)
        let canon_g6 = "Dhc" in
        let key = Cert_store.cert_key ~concept:(Concept.name Concept.RE) ~alpha:1.0 ~budget:None ~canon_g6 () in
        Cert_store.record s ~key ~canon_g6 ~concept:(Concept.name Concept.RE) ~alpha:1.0 ~budget:None
          { Cert_store.verdict = Verdict.Stable; rho = 1.0 };
        Cert_store.close s;
        let s = Cert_store.open_store dir in
        check_int "recorded cert survives the debris" 1 (Cert_store.cert_count s);
        Cert_store.close s)
    ;
    tc "infinite rho round-trips through the journal" (fun () ->
        (* Regression (found by fuzzing): Json renders non-finite floats
           as null, so certificates for disconnected graphs (rho = inf)
           used to be silently dropped on reload. *)
        let dir = fresh_dir "inf-rho" in
        let canon_g6 = "D??" in
        let key = Cert_store.cert_key ~concept:(Concept.name Concept.RE) ~alpha:2.0 ~budget:None ~canon_g6 () in
        with_store dir (fun s ->
            Cert_store.record s ~key ~canon_g6 ~concept:(Concept.name Concept.RE) ~alpha:2.0 ~budget:None
              { Cert_store.verdict = Verdict.Stable; rho = Float.infinity });
        with_store dir (fun s ->
            match Cert_store.find s ~key with
            | None -> Alcotest.fail "infinite-rho cert lost across reopen"
            | Some e -> check_true "rho is infinity" (e.Cert_store.rho = Float.infinity)))
    ;
    tc "sharded sweeps merge bit-identically to the unsharded run" (fun () ->
        let whole = Sweep.run spec in
        List.iter
          (fun m ->
            let shards =
              List.init m (fun k -> Sweep.run { spec with Sweep.shard = Some (k, m) })
            in
            match Sweep.merge_outcomes shards with
            | Error e -> Alcotest.fail e
            | Ok merged ->
                check_true
                  (Printf.sprintf "%d-shard merge == unsharded" m)
                  (outcome_sig merged = outcome_sig whole);
                check_true
                  (Printf.sprintf "%d-shard merged JSON == unsharded JSON" m)
                  (Json.to_string (Sweep.outcome_to_json ~wall:false merged)
                  = Json.to_string (Sweep.outcome_to_json ~wall:false whole)))
          [ 1; 2; 3; 8 ])
    ;
    tc "sharded sweep over trees merges bit-identically" (fun () ->
        let tspec = { spec with Sweep.family = Sweep.Trees; sizes = [ 8; 9 ] } in
        let whole = Sweep.run tspec in
        let shards =
          List.init 3 (fun k -> Sweep.run { tspec with Sweep.shard = Some (k, 3) })
        in
        match Sweep.merge_outcomes shards with
        | Error e -> Alcotest.fail e
        | Ok merged ->
            check_true "3-shard trees merge == unsharded"
              (outcome_sig merged = outcome_sig whole))
    ;
    tc "outcome JSON round-trips bit-exactly" (fun () ->
        let o = Sweep.run spec in
        let j = Json.to_string (Sweep.outcome_to_json ~wall:false o) in
        match Json.of_string j with
        | Error e -> Alcotest.fail e
        | Ok parsed -> (
            match Sweep.outcome_of_json parsed with
            | Error e -> Alcotest.fail e
            | Ok o' ->
                check_true "same outcome signature" (outcome_sig o' = outcome_sig o);
                check_true "re-serialisation is byte-identical"
                  (Json.to_string (Sweep.outcome_to_json ~wall:false o') = j)))
    ;
    tc "merge_outcomes rejects mismatched grids" (fun () ->
        let a = Sweep.run spec in
        let b = Sweep.run { spec with Sweep.alphas = [ 1.; 4. ] } in
        (match Sweep.merge_outcomes [ a; b ] with
        | Ok _ -> Alcotest.fail "cell-count mismatch accepted"
        | Error _ -> ());
        let c = Sweep.run { spec with Sweep.alphas = [ 1.; 4.; 17. ] } in
        (match Sweep.merge_outcomes [ a; c ] with
        | Ok _ -> Alcotest.fail "alpha mismatch accepted"
        | Error _ -> ());
        match Sweep.merge_outcomes [] with
        | Ok _ -> Alcotest.fail "empty merge accepted"
        | Error _ -> ())
    ;
    tc "sharded store journals absorb into a coordinator store" (fun () ->
        let whole = Sweep.run spec in
        let dirs = List.init 2 (fun k -> fresh_dir (Printf.sprintf "shard%d" k)) in
        List.iteri
          (fun k dir ->
            ignore
              (with_store dir (fun s ->
                   Sweep.run ~store:s { spec with Sweep.shard = Some (k, 2) })))
          dirs;
        let coord = fresh_dir "coordinator" in
        with_store coord (fun s ->
            List.iter (fun dir -> check_true "absorbed > 0" (Cert_store.absorb s dir > 0)) dirs;
            check_raises_invalid "absorbing own dir" (fun () ->
                ignore (Cert_store.absorb s (Cert_store.dir s))));
        (* The coordinator store now holds every shard's certificates:
           an unsharded run against it re-checks nothing. *)
        let warm = with_store coord (fun s -> Sweep.run ~store:s spec) in
        check_true "warm-from-absorbed == unsharded" (outcome_sig warm = outcome_sig whole);
        check_int "all decisions answered from absorbed journals"
          warm.Sweep.totals.total_checked warm.Sweep.totals.total_cache_hits)
    ;
    tc "sweep shard guards" (fun () ->
        check_raises_invalid "k >= m" (fun () ->
            ignore (Sweep.run { spec with Sweep.shard = Some (2, 2) }));
        check_raises_invalid "negative k" (fun () ->
            ignore (Sweep.candidates ~shard:(-1, 3) Sweep.Trees 6)))
    ;
    tc "totals are the sum of the cells" (fun () ->
        let o = Sweep.run spec in
        let t = o.Sweep.totals in
        let sum f = List.fold_left (fun n c -> n + f c) 0 o.Sweep.cells in
        check_int "checked" (sum (fun c -> c.Sweep.worst.checked)) t.Sweep.total_checked;
        check_int "hits" (sum (fun c -> c.Sweep.cache_hits)) t.Sweep.total_cache_hits;
        check_int "stable" (sum (fun c -> c.Sweep.worst.stable_count)) t.Sweep.total_stable;
        check_int "exhausted" (sum (fun c -> c.Sweep.worst.exhausted)) t.Sweep.total_exhausted;
        check_int "cells" (List.length spec.Sweep.sizes * List.length spec.Sweep.concepts
                           * List.length spec.Sweep.alphas)
          (List.length o.Sweep.cells))
    ;
    tc "cert keys: bilateral format pinned, games never collide" (fun () ->
        (* Hex digests computed by the pre-refactor cert_key on the
           golden fixture journal (test/golden/journal-pre.jsonl): the
           ?game-aware key function must keep producing them bit for
           bit, or every pre-refactor journal goes cold. *)
        let key ?game concept alpha g6 =
          Cert_store.cert_key ?game ~concept ~alpha ~budget:None ~canon_g6:g6 ()
        in
        Alcotest.(check string) "Di_ PS 1.0" "802a6b84f8de7b22cceef4268149e2a8"
          (key "PS" 1.0 "Di_");
        Alcotest.(check string) "DkC PS 2.0" "9df4c7cf965acb397c1455fed1728755"
          (key "PS" 2.0 "DkC");
        Alcotest.(check string) "Esa? BGE 2.0" "691735f569f75bff467258af95afc8cd"
          (key "BGE" 2.0 "Esa?");
        Alcotest.(check string) "explicit ~game:bilateral is the default"
          (key "PS" 1.0 "Di_")
          (key ~game:"bilateral" "PS" 1.0 "Di_");
        (* Same (g6, concept string, alpha) under another game must
           address a different certificate. *)
        check_true "unilateral key differs"
          (key ~game:"unilateral" "PS" 1.0 "Di_" <> key "PS" 1.0 "Di_");
        check_true "generalized key differs from bilateral"
          (key ~game:"generalized" "PS" 1.0 "Di_" <> key "PS" 1.0 "Di_");
        check_true "generalized key differs from unilateral"
          (key ~game:"generalized" "PS" 1.0 "Di_"
          <> key ~game:"unilateral" "PS" 1.0 "Di_");
        (* PS@d prices identically to bilateral PS, but it is a
           different game: its certificates must not alias the
           bilateral ones, nor each other across cost functions. *)
        check_true "generalized PS@d does not alias bilateral PS"
          (key ~game:"generalized" "PS@d" 1.0 "Di_" <> key "PS" 1.0 "Di_");
        check_true "cost functions do not alias"
          (key ~game:"generalized" "PS@d" 1.0 "Di_"
          <> key ~game:"generalized" "PS@d2" 1.0 "Di_"))
    ;
    tc "pre-refactor journal absorbs and serves a warm sweep" (fun () ->
        (* golden/journal-pre.jsonl was written by the pre-functor
           binary; it must absorb into a fresh store and answer a
           matching sweep entirely from cache. *)
        let dir = fresh_dir "pre-refactor-journal" in
        let spec =
          {
            Sweep.family = Sweep.Trees;
            sizes = [ 5; 6 ];
            concepts = [ Concept.PS; Concept.BGE ];
            alphas = [ 1.; 2. ];
            budget = None;
            domains = Some 1;
            shard = None;
          }
        in
        let plain = Sweep.run spec in
        let warm =
          with_store dir (fun s ->
              check_true "journal absorbed"
                (Cert_store.absorb s (Test_golden.golden_dir ()) > 0);
              Sweep.run ~store:s spec)
        in
        check_true "warm-from-pre-refactor-journal == fresh" (outcome_sig warm = outcome_sig plain);
        check_int "every decision was a cache hit" warm.Sweep.totals.total_checked
          warm.Sweep.totals.total_cache_hits)
    ;
    tc "run_cell_game (module Bilateral) is run_cell" (fun () ->
        let graphs = Enumerate.free_trees 6 in
        List.iter
          (fun alpha ->
            let generic, gh =
              Sweep.run_cell_game
                (module Bilateral)
                ~domains:1 ~concept:Concept.PS ~alpha graphs
            in
            let legacy, lh = Sweep.run_cell ~domains:1 ~concept:Concept.PS ~alpha graphs in
            check_true "same worst (bit-identical)" (worst_sig generic = worst_sig legacy);
            check_int "same hits" lh gh)
          [ 0.5; 1.; 3.; 17. ])
    ;
    tc "run_cell_game sweeps the unilateral game" (fun () ->
        (* A smoke cell over canonical unilateral states: counters add
           up and the worst ratio is a finite >= 1 bound, as Table 1
           style cells require. *)
        let states = List.map Unilateral_game.of_graph (Enumerate.free_trees 5) in
        let worst, hits =
          Sweep.run_cell_game
            (module Unilateral_game)
            ~domains:1 ~concept:Unilateral_game.UNE ~alpha:2.0 states
        in
        check_int "no store, no hits" 0 hits;
        check_int "all candidates examined" (List.length states) worst.Sweep.checked;
        check_true "some tree is an equilibrium" (worst.Sweep.stable_count > 0);
        check_true "worst ratio >= 1" (worst.Sweep.rho >= 1.);
        check_true "worst ratio finite" (Float.is_finite worst.Sweep.rho))
    ;
  ]
