(* Tests for the benchmark's statistics helpers, span aggregation and
   output checks.  Every check is shown to pass on a correct output and
   to fail on a corrupted one. *)

let floats = List.map float_of_int

let test_median () =
  let m = Option.get (Pb_stats.median (floats [ 5; 1; 3 ])) in
  Alcotest.(check (float 0.)) "odd" 3. m.value;
  Alcotest.(check int) "samples" 3 m.samples;
  let m = Option.get (Pb_stats.median (floats [ 4; 1; 3; 2 ])) in
  Alcotest.(check (float 0.)) "even" 2.5 m.value;
  Alcotest.(check bool) "empty" true (Pb_stats.median [] = None)

let test_percentile_refusal () =
  let xs n = floats (List.init n (fun i -> i + 1)) in
  (match Pb_stats.percentile 0.99 (xs 999) with
  | Ok _ -> Alcotest.fail "p99 of 999 samples has only 9 beyond it"
  | Error _ -> ());
  (match Pb_stats.percentile 0.99 (xs 1000) with
  | Ok p ->
      Alcotest.(check (float 0.)) "value" 990. p.pvalue;
      Alcotest.(check int) "samples" 1000 p.psamples;
      Alcotest.(check int) "beyond" 10 p.beyond
  | Error e -> Alcotest.fail e);
  (match Pb_stats.percentile 0.5 (xs 19) with
  | Ok _ -> Alcotest.fail "p50 of 19 samples has 9 beyond it"
  | Error _ -> ());
  Alcotest.(check bool) "empty" true (Result.is_error (Pb_stats.percentile 0.9 []))

let test_ratio () =
  let r = Pb_stats.ratio 3. 4. in
  Alcotest.(check (float 1e-12)) "value" 0.75 (Pb_stats.ratio_value r);
  Alcotest.(check string) "printed with base" "0.75 (3 / 4)" (Pb_stats.ratio_to_string r);
  Alcotest.(check (float 0.)) "empty base" 0. (Pb_stats.ratio_value (Pb_stats.ratio 0. 0.))

let span name ts dur = { Pb_trace.name; tid = 0; ts; dur }

let test_self_time () =
  (* A benchmark call wrapping a program span with two children; the
     program span starts a little before the benchmark's clock says. *)
  let bench = [ span "call" 1000 1000 ] in
  let program = [ span "run" 995 990; span "a" 1000 300; span "b" 1400 500 ] in
  let agg = Pb_trace.aggregate ~bench ~program in
  let self n = (Pb_trace.find agg n).Pb_trace.self_us in
  Alcotest.(check int) "call self" 10 (self "call");
  Alcotest.(check int) "run self" 190 (self "run");
  Alcotest.(check int) "leaf self" 300 (self "a");
  Alcotest.(check int) "selves add up to the root" 1000
    (self "call" + self "run" + self "a" + self "b")

let failing what errs = Alcotest.(check bool) what true (errs <> [])
let passing what errs = Alcotest.(check (list string)) what [] errs

let test_digest () =
  let d = Pb_check.md5 "payload" in
  passing "same bytes" (Pb_check.digest ~what:"x" ~expected:d "payload");
  failing "corrupted bytes" (Pb_check.digest ~what:"x" ~expected:d "paylaod")

let small_spec =
  {
    Sweep.family = Sweep.Trees;
    sizes = [ 6 ];
    concepts = [ Concept.PS; Concept.BGE ];
    alphas = [ 1.; 4. ];
    budget = None;
    domains = Some 1;
    shard = None;
  }

let test_sweep_checks () =
  let o = Sweep.run small_spec in
  passing "cells checked" (Pb_check.cells_checked ~expected:6 o);
  failing "wrong family size" (Pb_check.cells_checked ~expected:7 o);
  let dir = "perfbench-test-store" in
  let s = Cert_store.open_store dir in
  let cold = Sweep.run ~store:s small_spec in
  Cert_store.close s;
  let s = Cert_store.open_store dir in
  let warm = Sweep.run ~store:s small_spec in
  Cert_store.close s;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  passing "warm matches cold" (Pb_check.warm_matches_cold ~cold ~warm);
  failing "warm pass that recomputed" (Pb_check.warm_matches_cold ~cold ~warm:cold);
  let corrupt =
    {
      warm with
      cells =
        List.mapi
          (fun i (c : Sweep.cell) ->
            if i = 0 then { c with worst = { c.worst with stable_count = c.worst.stable_count + 1 } }
            else c)
          warm.cells;
    }
  in
  failing "corrupted warm cell" (Pb_check.warm_matches_cold ~cold ~warm:corrupt)

let test_dynamics_check () =
  let start = Gen.path 12 in
  let r =
    Engine.run ~eval_budget:200 ~policy:Local_moves.First ~concept:Concept.PS ~alpha:1. start
  in
  Alcotest.(check bool) "the run moved" true (r.Engine.moves <> []);
  passing "budget and replay" (Pb_check.dynamics_run ~what:"PS" ~budget:200 ~alpha:1. ~start r);
  failing "wrong budget" (Pb_check.dynamics_run ~what:"PS" ~budget:201 ~alpha:1. ~start r);
  (* A move that does not improve: remove a bridge of the path. *)
  let bad = { r with moves = Move.Remove { agent = 0; target = 1 } :: r.moves } in
  failing "non-improving move" (Pb_check.dynamics_run ~what:"PS" ~budget:200 ~alpha:1. ~start bad)

let test_reply_checks () =
  let ok =
    Json.to_string
      (Api.response_to_json
         (Api.Stats_ok
            { accepted = 1; coalesced = 0; shed = 0; completed = 1; cache_hits = 0; budget_warnings = 0 }))
  in
  passing "ok reply" (Pb_check.reply_ok ok);
  failing "error reply"
    (Pb_check.reply_ok
       (Api.reply_line ~id:None (Api.Error { code = Api.Overloaded; message = "queue full" })));
  failing "truncated reply" (Pb_check.reply_ok (String.sub ok 0 (String.length ok - 1)));
  passing "same bytes" (Pb_check.same_bytes ~what:"reply" ~expected:ok ok);
  failing "one byte more" (Pb_check.same_bytes ~what:"reply" ~expected:ok (ok ^ " "));
  failing "other payload" (Pb_check.same_bytes ~what:"reply" ~expected:ok "{}")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile refusal" `Quick test_percentile_refusal;
          Alcotest.test_case "ratio with base" `Quick test_ratio;
        ] );
      ("trace", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ( "checks",
        [
          Alcotest.test_case "digest" `Quick test_digest;
          Alcotest.test_case "sweep outputs" `Quick test_sweep_checks;
          Alcotest.test_case "dynamics outputs" `Quick test_dynamics_check;
          Alcotest.test_case "serve replies" `Quick test_reply_checks;
        ] );
    ]
