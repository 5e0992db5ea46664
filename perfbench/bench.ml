(* The repository benchmark: one workload per invocation.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (why each was chosen is in perfbench/NOTES.md and
   BENCHMARK.json):
     sweep-trees  cold Sweep.run, all free trees n=16, PS/BSwE/BGE x a in {1,2,4,8}
     sweep-store  Sweep.run into a fresh Cert_store (cold), then reopened (warm),
                  connected n=8, RE/BAE/PS/BSwE/BGE x a in {1,2,4,8}
     dynamics     Engine.run, first-improvement, a=2, 30 000 evaluations per
                  concept and pass: PS over three seeded random trees n=1024
                  (10 000 each), BSwE on the stretched tree n=510
     serve-mixed  per pass, a fresh Serve.run daemon (this executable in daemon
                  mode) answers a seeded stream of first-time checks, repeats
                  and PoA requests over two closed-loop connections

   Untraced runs (--trace 0) measure the end-to-end metrics; traced runs
   (--trace 1) collect the program's Obs spans and counters plus the
   benchmark's own spans around its calls, and report per-layer metrics.
   Human-readable lines go first; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}.  Output checks that fail
   count in [failed], and the exit code is 1 when any did. *)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let now () = float_of_int (Obs.now_us ()) /. 1e6

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* End-to-end passes run on one domain.  On the two-vCPU benchmark host
   the second vCPU is shared with other tenants: over ten alternating
   runs a 2-domain sweep took 1.62-2.26 s where the 1-domain sweep took
   2.08-2.25 s.  Traced runs add a pass on [domains] for the Parallel
   figures. *)
let e2e_domains = 1
let domains = 2

(* ------------------------------------------------------------------ *)
(* Run bookkeeping                                                      *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failures : string list ref = ref []
let failed = ref 0

(* One checked output: [errs] are the checks that failed on it. *)
let checked errs =
  incr attempted;
  if errs <> [] then begin
    incr failed;
    failures := !failures @ errs
  end

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := !metrics @ [ (name, v, unit) ]
let say fmt = Printf.printf (fmt ^^ "\n%!")

let report_median name unit xs =
  say "  %-28s %s" name (Pb_stats.summary_to_string unit (Pb_stats.median xs))

let median_or_zero xs =
  match Pb_stats.median xs with Some s -> s.Pb_stats.value | None -> 0.

(* Peak resident set of a process, from the kernel's high-water mark. *)
let peak_rss_mb pid =
  let path = match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  let v = go () in
  close_in ic;
  v

(* Runs [pass] back to back until [seconds] have elapsed (at least
   [min_passes] times); returns each pass's value.  Each pass starts
   from a collected heap, so its time and the peak RSS do not depend on
   when the previous pass's garbage happens to be collected. *)
let repeat_for ~seconds ?(min_passes = 1) pass =
  let t0 = now () in
  let rec go acc k =
    if k >= min_passes && now () -. t0 >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      go (pass () :: acc) (k + 1)
    end
  in
  go [] 0

(* Set-up is repeated and reported as a median; [f] returns what the
   measured phase will use, and the last repetition's value is kept. *)
let setup_reps = 9

let setup ?(reps = setup_reps) f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let x, dt = timed f in
    times := dt :: !times;
    last := Some x
  done;
  (Option.get !last, !times)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes path =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat path f)).Unix.st_size)
    0
    (try Sys.readdir path with Sys_error _ -> [||])

(* Program start-up: this executable run in probe mode, which exits as
   soon as every linked library has initialised.  It is the set-up an
   in-process workload shares with every user's run, and it shows work
   moved into module initialisation. *)
let probe_start () =
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe" |] Unix.stdin
      Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> checked [ "start-up probe failed" ]

(* ------------------------------------------------------------------ *)
(* Traced-run helpers                                                   *)
(* ------------------------------------------------------------------ *)

type traced = {
  agg : (string, Pb_trace.agg) Hashtbl.t;
  counters : (string * int) list;
  bench_spans : Pb_trace.span list;
  program_spans : Pb_trace.span list;
}

(* Scratch files: stores, sockets, traces.  Relative to the checkout
   root, which is where [run.py] starts this program. *)
let out_dir = "perfbench/out"

(* Runs [f] with the program's trace sink and the benchmark's span
   recorder on, then reads the trace back. *)
let with_trace ~name f =
  let file = Filename.concat out_dir (name ^ ".obs.jsonl") in
  Pb_trace.start ~trace_file:file;
  let x = Fun.protect f ~finally:Pb_trace.stop in
  let program_spans, counters = Pb_trace.read_obs_trace file in
  Sys.remove file;
  let bench_spans = Pb_trace.recorded () in
  let agg = Pb_trace.aggregate ~bench:bench_spans ~program:program_spans in
  (x, { agg; counters; bench_spans; program_spans })

let counter t name = try List.assoc name t.counters with Not_found -> 0

let busy_us t =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k > 9 && String.sub k 0 10 = "parallel.d"
         && Filename.check_suffix k ".busy_us"
      then acc + v
      else acc)
    0 t.counters

(* Count, total and self time per span, then per layer. *)
let layer_of name =
  match name with
  | "sweep.enumerate" | "sweep.shard" | "bench.candidates" -> "Enumerate"
  | "sweep.run" | "sweep.cell" -> "Sweep"
  | "parallel.job" -> "Parallel"
  | "bench.canon" -> "Iso/Encode"
  | "dynamics.run" -> "Engine"
  | "serve.request" -> "Serve"
  | "bench.codec" -> "Api"
  | n when String.length n > 11 && String.sub n 0 11 = "bench.store" -> "Cert_store"
  | _ -> "benchmark"

let print_layers t =
  say "  per-span  (count, total s, self s):";
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) t.agg [] |> List.sort compare in
  List.iter
    (fun n ->
      let a = Pb_trace.find t.agg n in
      say "    %-24s %-11s %7d %10.4f %10.4f" n (layer_of n) a.Pb_trace.count
        (float_of_int a.total_us /. 1e6) (float_of_int a.self_us /. 1e6))
    names;
  let layers = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let a = Pb_trace.find t.agg n and l = layer_of n in
      let c, s = try Hashtbl.find layers l with Not_found -> (0, 0) in
      Hashtbl.replace layers l (c + a.Pb_trace.count, s + a.self_us))
    names;
  say "  per-layer (count, self s):";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []
  |> List.sort compare
  |> List.iter (fun (l, (c, s)) -> say "    %-24s %7d %10.4f" l c (float_of_int s /. 1e6))

let write_trace ~name t =
  Pb_trace.write
    (Filename.concat out_dir (name ^ ".trace.jsonl"))
    (List.sort
       (fun (a : Pb_trace.span) b -> compare a.ts b.ts)
       (t.bench_spans @ t.program_spans))

(* Every per-layer metric, in BENCHMARK.json order.  A layer that does no
   work on a workload reports 0 (its prediction there is "no change");
   the human-readable lines say which figures were not measured. *)
let per_layer_names =
  [
    ("enumerate.s", "s"); ("enumerate.candidates", "count"); ("sweep.cells_s", "s");
    ("sweep.decided", "count"); ("sweep.coordinator_s", "s"); ("sweep.accounted_share", "ratio");
    ("parallel.busy_s", "s"); ("parallel.utilisation", "ratio"); ("parallel.jobs", "count");
    ("parallel.speedup_1to2", "ratio"); ("checker.s_per_decision", "s");
    ("checker.exhausted", "count"); ("canon.memo_hit_ratio", "ratio"); ("canon.s", "s");
    ("cert_store.open_s", "s"); ("cert_store.hit_ratio", "ratio"); ("cert_store.records", "count");
    ("cert_store.flushes", "count"); ("cert_store.journal_mb", "MB"); ("cert_store.find_s", "s");
    ("cert_store.record_s", "s"); ("dist_oracle.scratch_rows", "count");
    ("dist_oracle.relaxed_rows", "count"); ("dist_oracle.kept_rows", "count");
    ("dist_oracle.dropped_rows", "count"); ("dist_oracle.repair_ratio", "ratio");
    ("engine.evals", "count"); ("engine.priced", "count"); ("engine.cache_hit_ratio", "ratio");
    ("engine.steps", "count"); ("engine.rows_per_eval", "ratio");
    ("serve.latency_p50_ms.warm", "ms"); ("serve.latency_p50_ms.cold", "ms");
    ("serve.latency_p50_ms.poa", "ms"); ("serve.latency_p99_ms.warm", "ms");
    ("serve.latency_p99_ms.cold", "ms"); ("serve.latency_p90_ms.poa", "ms");
    ("serve.samples.warm", "count"); ("serve.samples.cold", "count");
    ("serve.samples.poa", "count"); ("serve.compute_s", "s"); ("serve.compute_share", "ratio");
    ("serve.cache_hit_ratio", "ratio"); ("serve.coalesced", "count"); ("serve.shed", "count");
    ("api.codec_us", "us"); ("obs.trace_overhead", "ratio");
  ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v =
  if not (List.mem_assoc name per_layer_names) then invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let set_ratio name r =
  say "  %-28s %s" name (Pb_stats.ratio_to_string r);
  set name (Pb_stats.ratio_value r)

let set_count name v =
  say "  %-28s %d" name v;
  set name (float_of_int v)

let set_time name v =
  say "  %-28s %.6f" name v;
  set name v

let emit_per_layer () =
  List.iter
    (fun (name, unit) ->
      let v = try Hashtbl.find layer_values name with Not_found -> 0. in
      metric name unit v)
    per_layer_names

(* How closely one traced pass's layer times must add up to the untraced
   sweep_s: the gap is tracing overhead plus run-to-run noise. *)
let accounting_tolerance = 0.15

(* Dist_oracle's process-wide repair counters over [f]. *)
let oracle_delta f =
  let a = Dist_oracle.global_stats () in
  let x = f () in
  let b = Dist_oracle.global_stats () in
  ( x,
    {
      Dist_oracle.scratch = b.scratch - a.scratch;
      relaxed = b.relaxed - a.relaxed;
      kept = b.kept - a.kept;
      dropped = b.dropped - a.dropped;
    } )

let set_oracle (o : Dist_oracle.stats) =
  set_count "dist_oracle.scratch_rows" o.scratch;
  set_count "dist_oracle.relaxed_rows" o.relaxed;
  set_count "dist_oracle.kept_rows" o.kept;
  set_count "dist_oracle.dropped_rows" o.dropped;
  set_ratio "dist_oracle.repair_ratio"
    (Pb_stats.ratio (float_of_int (o.relaxed + o.kept))
       (float_of_int (o.scratch + o.relaxed + o.kept)))

(* ------------------------------------------------------------------ *)
(* sweep-trees                                                          *)
(* ------------------------------------------------------------------ *)

let trees_n = 16
let trees_count = 19_320

let trees_spec d =
  {
    Sweep.family = Sweep.Trees;
    sizes = [ trees_n ];
    concepts = [ Concept.PS; Concept.BSwE; Concept.BGE ];
    alphas = [ 1.; 2.; 4.; 8. ];
    budget = None;
    domains = Some d;
    shard = None;
  }

(* MD5 of [Sweep.outcome_to_json ~wall:false] for the spec above. *)
let trees_digest = "34c9576e7dca9539c1adb518bd137033"

let check_trees o =
  checked
    (Pb_check.cells_checked ~expected:trees_count o
    @ Pb_check.digest ~what:"sweep-trees outcome" ~expected:trees_digest
        (Json.to_string (Sweep.outcome_to_json ~wall:false o)))

let trees_pass d () =
  let o, dt = timed (fun () -> Pb_trace.span "bench.sweep" (fun () -> Sweep.run (trees_spec d))) in
  check_trees o;
  dt

(* Per-layer figures shared by both sweep workloads.  [accounted] and
   [one_pass] come from a traced 1-domain pass (the end-to-end
   configuration, so they compare with the untraced [sweep_s]); [par] is
   a traced pass on [domains], the only place Parallel runs. *)
let set_sweep_figures ~par ~accounted ~sweep_s ~one_pass ~par_pass =
  say "  accounted: %.4f s per traced pass vs untraced sweep_s %.4f s (tolerance %.0f%%): %s"
    accounted sweep_s (100. *. accounting_tolerance)
    (if Float.abs (accounted -. sweep_s) <= accounting_tolerance *. sweep_s then "within"
     else "OUTSIDE");
  set_ratio "sweep.accounted_share" (Pb_stats.ratio accounted sweep_s);
  set_ratio "obs.trace_overhead" (Pb_stats.ratio one_pass sweep_s);
  set_ratio "parallel.speedup_1to2" (Pb_stats.ratio one_pass par_pass);
  let cells = Pb_trace.total_s par.agg "sweep.cell" in
  (* parallel.job spans also nest under sweep.enumerate (connected
     enumeration fans out); only those under cells are checker work. *)
  let jobs_in_cells =
    Pb_trace.total_s par.agg "parallel.job"
    -. (Pb_trace.total_s par.agg "sweep.enumerate" -. Pb_trace.self_s par.agg "sweep.enumerate")
  in
  set_time "sweep.cells_s" cells;
  set_count "sweep.decided" (counter par "sweep.decided");
  set_time "sweep.coordinator_s" (cells -. jobs_in_cells);
  let busy = float_of_int (busy_us par) /. 1e6 in
  set_time "parallel.busy_s" busy;
  set_ratio "parallel.utilisation"
    (Pb_stats.ratio busy (float_of_int domains *. Pb_trace.total_s par.agg "parallel.job"));
  set_count "parallel.jobs" (counter par "parallel.jobs");
  set_ratio "checker.s_per_decision"
    (Pb_stats.ratio busy (float_of_int (counter par "sweep.decided")));
  set_count "checker.exhausted" (counter par "sweep.exhausted")

(* Enumerate and Iso/Encode replays over a family, outside any sweep. *)
let replay_family family n =
  let graphs, enum_s =
    timed (fun () ->
        Pb_trace.span "bench.candidates" (fun () -> Sweep.candidates ~domains:e2e_domains family n))
  in
  set_time "enumerate.s" enum_s;
  set_count "enumerate.candidates" (List.length graphs);
  let (), canon_s =
    timed (fun () ->
        Pb_trace.span "bench.canon" (fun () ->
            List.iter (fun g -> ignore (Encode.canonical_graph6 g)) graphs))
  in
  set_time "canon.s" canon_s;
  graphs

let sweep_trees ~seconds ~trace =
  let (), setups = setup probe_start in
  let pass = trees_pass in
  if not trace then begin
    let passes = repeat_for ~seconds ~min_passes:2 (pass e2e_domains) in
    report_median "setup_s" "s" setups;
    report_median "sweep_s" "s" passes;
    (setups, passes)
  end
  else begin
    let untraced = repeat_for ~seconds:(seconds /. 2.) (pass e2e_domains) in
    let (one_s, o), one = with_trace ~name:"sweep-trees" (fun () -> oracle_delta (pass e2e_domains)) in
    let par_s, par = with_trace ~name:"sweep-trees-par" (pass domains) in
    print_layers one;
    write_trace ~name:"sweep-trees" one;
    say "  2-domain pass:";
    print_layers par;
    (* One traced pass: enumerate + cells + the sweep's and the call's
       own time add up to the call. *)
    let accounted =
      Pb_trace.total_s one.agg "sweep.enumerate" +. Pb_trace.total_s one.agg "sweep.cell"
      +. Pb_trace.self_s one.agg "sweep.run" +. Pb_trace.self_s one.agg "bench.sweep"
    in
    set_sweep_figures ~par ~accounted ~sweep_s:(median_or_zero untraced) ~one_pass:one_s
      ~par_pass:par_s;
    set_oracle o;
    ignore (replay_family Sweep.Trees trees_n);
    report_median "sweep_s" "s" untraced;
    (setups, untraced)
  end

(* ------------------------------------------------------------------ *)
(* sweep-store                                                          *)
(* ------------------------------------------------------------------ *)

let store_n = 8
let store_count = 11_117

let store_spec d =
  {
    Sweep.family = Sweep.Connected;
    sizes = [ store_n ];
    concepts = [ Concept.RE; Concept.BAE; Concept.PS; Concept.BSwE; Concept.BGE ];
    alphas = [ 1.; 2.; 4.; 8. ];
    budget = None;
    domains = Some d;
    shard = None;
  }

(* MD5 of the cold pass's [Sweep.outcome_to_json ~wall:false]. *)
let store_digest = "4a5182f0e7aa076bfd0a04a430d6c8f6"
let store_seq = ref 0

let fresh_store_dir () =
  incr store_seq;
  let d = Filename.concat out_dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !store_seq) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* One pass: a cold sweep into [dir], then (with [warm]) the store
   reopened and the grid answered again.  Returns (cold s, warm s, open
   s of the warm store, journal bytes); the warm figures are 0 without
   [warm]. *)
let store_pass ?(warm = true) spec dir =
  let cold, cold_s =
    timed (fun () ->
        let s = Pb_trace.span "bench.store_open" (fun () -> Cert_store.open_store dir) in
        let o = Pb_trace.span "bench.sweep" (fun () -> Sweep.run ~store:s spec) in
        Pb_trace.span "bench.store_close" (fun () -> Cert_store.close s);
        o)
  in
  let bytes = dir_bytes dir in
  let cold_errs =
    Pb_check.cells_checked ~expected:store_count cold
    @ Pb_check.digest ~what:"sweep-store cold outcome" ~expected:store_digest
        (Json.to_string (Sweep.outcome_to_json ~wall:false cold))
  in
  let result =
    if not warm then begin
      checked cold_errs;
      (cold_s, 0., 0., bytes)
    end
    else begin
      let (warm, open_s), warm_s =
        timed (fun () ->
            let s, open_s =
              timed (fun () ->
                  Pb_trace.span "bench.store_reopen" (fun () -> Cert_store.open_store dir))
            in
            let o = Pb_trace.span "bench.warm_sweep" (fun () -> Sweep.run ~store:s spec) in
            Cert_store.close s;
            (o, open_s))
      in
      checked
        (cold_errs
        @ Pb_check.cells_checked ~expected:store_count warm
        @ Pb_check.warm_matches_cold ~cold ~warm);
      (cold_s, warm_s, open_s, bytes)
    end
  in
  rm_rf dir;
  result

(* Replays one cell through the store's public steps, timing each:
   canonical_g6 -> cert_key -> find -> check -> record. *)
let replay_cell ~seed graphs =
  let rng = Splitmix.derive (Int64.of_int seed) [ 3 ] in
  let spec = store_spec e2e_domains in
  let concept = Splitmix.pick rng spec.concepts and alpha = Splitmix.pick rng spec.alphas in
  let dir = fresh_store_dir () in
  let s = Cert_store.open_store dir in
  let find_s = ref 0. and record_s = ref 0. and canon_s = ref 0. in
  let cname = Concept.name concept in
  let pass () =
    List.iter
      (fun g ->
        let canon_g6, dt = timed (fun () -> Cert_store.canonical_g6 s g) in
        canon_s := !canon_s +. dt;
        let key = Cert_store.cert_key ~concept:cname ~alpha ~budget:None ~canon_g6 () in
        let found, dt = timed (fun () -> Cert_store.find s ~key) in
        find_s := !find_s +. dt;
        if found = None then begin
          let e = { Cert_store.verdict = Concept.check ~alpha concept g; rho = Cost.rho ~alpha g } in
          let (), dt =
            timed (fun () ->
                Cert_store.record s ~key ~canon_g6 ~concept:cname ~alpha ~budget:None e)
          in
          record_s := !record_s +. dt
        end)
      graphs
  in
  Pb_trace.span "bench.store_replay" pass;
  Cert_store.close s;
  rm_rf dir;
  say "  store replay of cell %s a=%g over %d candidates: canonical_g6 %.4f s" cname alpha
    (List.length graphs) !canon_s;
  (!find_s, !record_s)

let sweep_store ~seed ~seconds ~trace =
  let prev = ref None in
  let dir, setups =
    setup (fun () ->
        Option.iter rm_rf !prev;
        probe_start ();
        let d = fresh_store_dir () in
        prev := Some d;
        d)
  in
  let first = ref true in
  let pass () =
    let dir = if !first then dir else fresh_store_dir () in
    first := false;
    store_pass (store_spec e2e_domains) dir
  in
  let results =
    repeat_for ~seconds:(if trace then 0. else seconds) ~min_passes:(if trace then 1 else 2) pass
  in
  let cold = List.map (fun (c, _, _, _) -> c) results in
  let warm = List.map (fun (_, w, _, _) -> w) results in
  let totals = List.map (fun (c, w, _, _) -> c +. w) results in
  report_median "setup_s" "s" setups;
  report_median "sweep_s (cold pass)" "s" cold;
  report_median "warm_sweep_s" "s" warm;
  report_median "cert_store.open_s (warm)" "s" (List.map (fun (_, _, o, _) -> o) results);
  if trace then begin
    let ((tc, _, topen, bytes), o), one =
      with_trace ~name:"sweep-store" (fun () ->
          oracle_delta (fun () -> store_pass (store_spec e2e_domains) (fresh_store_dir ())))
    in
    let par_s, par =
      with_trace ~name:"sweep-store-par" (fun () ->
          let c, _, _, _ = store_pass ~warm:false (store_spec domains) (fresh_store_dir ()) in
          c)
    in
    print_layers one;
    write_trace ~name:"sweep-store" one;
    say "  2-domain cold pass:";
    print_layers par;
    (* The cold pass: the store's open and close around the sweep. *)
    let accounted =
      Pb_trace.total_s one.agg "bench.store_open" +. Pb_trace.total_s one.agg "bench.sweep"
      +. Pb_trace.total_s one.agg "bench.store_close"
    in
    say "  warm: reopen %.4f s + sweep %.4f s" topen (Pb_trace.total_s one.agg "bench.warm_sweep");
    set_sweep_figures ~par ~accounted ~sweep_s:(median_or_zero cold) ~one_pass:tc
      ~par_pass:par_s;
    set_oracle o;
    set_time "cert_store.open_s" topen;
    let graphs = replay_family Sweep.Connected store_n in
    let hits = counter one "cert_store.hits" and misses = counter one "cert_store.misses" in
    let chits = counter one "cert_store.canon_hits"
    and cmiss = counter one "cert_store.canon_misses" in
    set_ratio "canon.memo_hit_ratio"
      (Pb_stats.ratio (float_of_int chits) (float_of_int (chits + cmiss)));
    set_ratio "cert_store.hit_ratio"
      (Pb_stats.ratio (float_of_int hits) (float_of_int (hits + misses)));
    set_count "cert_store.records" misses;
    set_count "cert_store.flushes" (counter one "cert_store.flushes");
    set_time "cert_store.journal_mb" (float_of_int bytes /. 1048576.);
    let find_s, record_s = replay_cell ~seed graphs in
    set_time "cert_store.find_s" find_s;
    set_time "cert_store.record_s" record_s
  end;
  (setups, totals)

(* ------------------------------------------------------------------ *)
(* dynamics                                                             *)
(* ------------------------------------------------------------------ *)

(* Evaluations per pass and concept.  The PS share is split over
   [ps_trees] seeded trees so that a run's figure does not hinge on the
   shape of one tree. *)
let dyn_budget = 30_000
let ps_trees = 3

(* A uniform random labelled tree on [n] vertices, from a Pruefer
   sequence drawn from the workload seed. *)
let random_tree ~seed j n =
  let rng = Splitmix.derive (Int64.of_int seed) [ 1; j ] in
  Gen.of_pruefer (Array.init (n - 2) (fun _ -> Splitmix.int rng n))

let stretched () = (Stretched.binary_tree ~d:7 ~k:2).Stretched.graph

(* MD5 of the BSwE move trace ([Pb_check.moves_bytes]); the start graph
   does not depend on the seed. *)
let bswe_digest = "da5376a12e4f1e98360cadfabb2e9ff8"

(* MD5 of the PS move traces, concatenated over the seed's trees, as
   recorded for seeds 0-19 (at 10 000 evaluations a tree, every one of
   those seeds but 7 yields the same moves).  Every seed is also checked
   by replay and by agreement between passes. *)
let ps_digest seed =
  if seed < 0 || seed > 19 then None
  else if seed = 7 then Some "6697ef98b45038efb8b03934cdd20456"
  else Some "d4387d5e3fbab3f58e9a989f4c7fa971"

let dynamics ~seed ~seconds ~trace =
  let (trees, str), setups =
    setup (fun () ->
        probe_start ();
        (List.init ps_trees (fun j -> random_tree ~seed j 1024), stretched ()))
  in
  let runs =
    List.map (fun t -> ("PS", Concept.PS, t, dyn_budget / ps_trees)) trees
    @ [ ("BSwE", Concept.BSwE, str, dyn_budget) ]
  in
  let alpha = 2. in
  let first_ps = ref None in
  let pass () =
    let results =
      List.map
        (fun (what, concept, start, budget) ->
          Gc.full_major ();
          let r, dt =
            timed (fun () ->
                Pb_trace.span "bench.engine" (fun () ->
                    Engine.run ~eval_budget:budget ~policy:Local_moves.First ~concept ~alpha start))
          in
          checked (Pb_check.dynamics_run ~what ~budget ~alpha ~start r);
          (what, r, dt))
        runs
    in
    let trace what =
      String.concat ""
        (List.filter_map
           (fun (w, r, _) -> if w = what then Some (Pb_check.moves_bytes r.Engine.moves) else None)
           results)
    in
    let ps = trace "PS" in
    checked
      (Pb_check.digest ~what:"BSwE move trace" ~expected:bswe_digest (trace "BSwE")
      @
      match (ps_digest seed, !first_ps) with
      | Some d, _ -> Pb_check.digest ~what:"PS move traces" ~expected:d ps
      | None, Some d -> Pb_check.digest ~what:"PS move traces (first pass)" ~expected:d ps
      | None, None ->
          first_ps := Some (Pb_check.md5 ps);
          say "  PS move traces md5 %s (seed %d has no recorded digest)" (Pb_check.md5 ps) seed;
          []);
    results
  in
  let part what results =
    List.fold_left (fun a (w, _, dt) -> if w = what then a +. dt else a) 0. results
  in
  let report passes =
    report_median "evals_per_s" "evals/s"
      (List.map (fun (_, dt) -> float_of_int (2 * dyn_budget) /. dt) passes);
    List.iter
      (fun what ->
        report_median ("evals_per_s." ^ what) "evals/s"
          (List.map (fun (rs, _) -> float_of_int dyn_budget /. part what rs) passes))
      [ "PS"; "BSwE" ]
  in
  (* A pass's time is its runs' time: the collections and output checks
     between runs are not part of it. *)
  let timed_pass () =
    let rs = pass () in
    (rs, part "PS" rs +. part "BSwE" rs)
  in
  if not trace then begin
    let passes = repeat_for ~seconds ~min_passes:2 timed_pass in
    report_median "setup_s" "s" setups;
    report passes;
    (setups, List.map snd passes)
  end
  else begin
    let untraced = repeat_for ~seconds:(seconds /. 2.) timed_pass in
    let (rs, traced), t =
      with_trace ~name:"dynamics" (fun () ->
          let (rs, dt), o = oracle_delta timed_pass in
          set_oracle o;
          (List.map (fun (_, r, _) -> r) rs, dt))
    in
    print_layers t;
    write_trace ~name:"dynamics" t;
    let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
    let evals = sum Engine.evals in
    set_count "engine.evals" evals;
    set_count "engine.priced" (sum (fun r -> r.Engine.priced));
    set_ratio "engine.cache_hit_ratio"
      (Pb_stats.ratio (float_of_int (sum (fun r -> r.Engine.cache_hits))) (float_of_int evals));
    set_count "engine.steps" (sum (fun r -> r.Engine.steps));
    set_ratio "engine.rows_per_eval"
      (Pb_stats.ratio (float_of_int (sum (fun r -> r.Engine.scratch_rows))) (float_of_int evals));
    let untraced_s = List.map snd untraced in
    set_ratio "obs.trace_overhead" (Pb_stats.ratio traced (median_or_zero untraced_s));
    report untraced;
    (setups, untraced_s)
  end

(* ------------------------------------------------------------------ *)
(* serve-mixed                                                          *)
(* ------------------------------------------------------------------ *)

type cls = Warm | Cold | Poa

let cls_name = function Warm -> "warm" | Cold -> "cold" | Poa -> "poa"
let serve_concepts = [ "PS"; "BSwE"; "BGE"; "BNE" ]
let serve_alphas = [ 1.; 2.; 4.; 8. ]

(* PoA requests sweep a finer alpha grid so that every one of them is a
   first-time request. *)
let poa_alphas = List.init 128 (fun k -> 0.25 *. float_of_int (k + 1))
let poa_n = 10

(* Requests per pass.  A pass is one fresh daemon answering one seeded
   stream, so every pass starts from a cold answer cache. *)
let stream_len = 8000

(* The stream is built from blocks of [block] requests: one PoA request,
   [block_cold] first-time checks (cycling through the concepts) and
   the rest repeats of earlier requests, in a seeded order.  Fixed
   shares keep the work of a pass from hinging on coin flips. *)
let block = 50
let block_cold = 24

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let line_of r = Json.to_string (Api.request_to_json r)

(* The [k]-th pass's stream under [seed]: (request line, class) pairs.
   The daemon only ever sees these lines. *)
let make_stream ~seed k =
  let g6s =
    List.map Encode.to_graph6 (Enumerate.free_trees 12)
    @ List.map Encode.to_graph6 (Enumerate.connected_graphs_orderly 7)
  in
  let rng = Splitmix.derive (Int64.of_int seed) [ 2; k ] in
  let game = Api.default_game and budget = Api.default_budget in
  let fresh =
    Array.of_list
      (List.map
         (fun concept ->
           shuffle rng
             (Array.of_list
                (List.concat_map
                   (fun graph6 ->
                     List.map
                       (fun alpha -> line_of (Api.Check { game; concept; alpha; graph6; budget }))
                       serve_alphas)
                   g6s)))
         serve_concepts)
  in
  let poas =
    shuffle rng
      (Array.of_list
         (List.concat_map
            (fun concept ->
              List.map
                (fun alpha ->
                  line_of (Api.Poa { game; concept; alpha; n = poa_n; family = Api.Trees; budget }))
                poa_alphas)
            serve_concepts))
  in
  let history = Array.make stream_len "" and seen = ref 0 in
  let taken = Array.make (Array.length fresh) 0 and turn = ref 0 and poa = ref 0 in
  let first line =
    history.(!seen) <- line;
    incr seen;
    line
  in
  Array.concat
    (List.init (stream_len / block) (fun _ ->
         let kinds =
           shuffle rng (Array.init block (fun i -> if i = 0 then Poa else if i <= block_cold then Cold else Warm))
         in
         Array.map
           (fun kind ->
             match kind with
             | Warm when !seen > 0 -> (history.(Splitmix.int rng !seen), Warm)
             | Poa ->
                 incr poa;
                 (first poas.(!poa - 1), Poa)
             | Warm | Cold ->
                 let c = !turn mod Array.length fresh in
                 incr turn;
                 taken.(c) <- taken.(c) + 1;
                 (first fresh.(c).(taken.(c) - 1), Cold))
           kinds))

(* The daemon: this executable re-run in daemon mode, so it starts from a
   fresh process image and its peak RSS is the daemon's own. *)
let daemon_main ~socket ~trace_file =
  let code =
    try
      Option.iter (fun f -> Obs.start ~trace:f ~echo:false ()) trace_file;
      Serve.run
        {
          Serve.listen = Serve.Unix_socket socket;
          domains = Some e2e_domains;
          store = None;
          max_inflight = Serve.default_max_inflight;
          max_queue = Serve.default_max_queue;
          client_budget = None;
        };
      Obs.stop ();
      0
    with e ->
      prerr_endline ("perfbench daemon: " ^ Printexc.to_string e);
      1
  in
  exit code

let spawn_daemon ~socket ~trace_file =
  let args =
    [ Sys.executable_name; "--daemon"; socket ]
    @ match trace_file with Some f -> [ "--daemon-trace"; f ] | None -> []
  in
  Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> []
  | _, Unix.WEXITED c -> [ Printf.sprintf "daemon exited %d" c ]
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> [ Printf.sprintf "daemon stopped by signal %d" s ]

(* Asks the daemon to drain and exit; its reply and exit status are
   checked like any other output. *)
let shutdown_daemon pid conn =
  let reply = Serve_client.request_raw conn (line_of Api.Shutdown) in
  Serve_client.close conn;
  checked
    ((match reply with
     | Some r -> Pb_check.reply_ok r
     | None -> [ "no reply to shutdown" ])
    @ reap pid)

(* Waits for the daemon in 1 ms steps (Serve_client's own retry pause
   is 50 ms, which would dominate the set-up time it measures). *)
let connect socket =
  let give_up = now () +. 10. in
  let rec go () =
    match Serve_client.connect ~retries:0 (Serve_client.Unix_socket socket) with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
        if now () > give_up then raise e;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

type sample = { line : string; cls : cls; reply : string; latency : float }

(* Two closed-loop connections, each with one request outstanding,
   until the whole stream has been answered.  Returns the samples in
   completion order and the loop's wall time. *)
let closed_loop stream conns =
  let t_start = now () in
  let n = Array.length conns in
  let waiting = Array.make n None in
  let samples = ref [] and sent = ref 0 in
  let send i =
    if !sent < Array.length stream then begin
      let line, cls = stream.(!sent) in
      incr sent;
      Serve_client.send_line conns.(i) line;
      waiting.(i) <- Some (line, cls, now ())
    end
  in
  for i = 0 to n - 1 do
    send i
  done;
  let idx = List.init n Fun.id in
  while Array.exists Option.is_some waiting do
    let fds = List.filter_map (fun i -> Option.map (fun _ -> Serve_client.fd conns.(i)) waiting.(i)) idx in
    match Unix.select fds [] [] 120. with
    | [], _, _ ->
        checked [ "no reply within 120 s" ];
        Array.fill waiting 0 n None
    | ready, _, _ ->
        List.iter
          (fun i ->
            if List.mem (Serve_client.fd conns.(i)) ready then begin
              Serve_client.feed conns.(i);
              match (Serve_client.next_line conns.(i), waiting.(i)) with
              | Some reply, Some (line, cls, t0) ->
                  let t = now () in
                  samples := { line; cls; reply; latency = t -. t0 } :: !samples;
                  waiting.(i) <- None;
                  send i
              | Some reply, None -> checked [ "unsolicited reply " ^ reply ]
              | None, _ -> ()
            end)
          idx
  done;
  (List.rev !samples, now () -. t_start)

(* The payload [bncg check --json] / [bncg poa --json] would print. *)
let in_process line =
  match Api.parse_request_line line with
  | Ok (_, Api.Check { game; concept; alpha; graph6; budget }) ->
      let c = Result.get_ok (Concept.of_string concept) in
      let g = Encode.of_graph6 graph6 in
      let verdict = Concept.check ~budget ~alpha c g in
      Json.to_string
        (Api.response_to_json
           (Api.Check_ok { game; concept; alpha; graph6; verdict; rho = Cost.rho ~alpha g }))
  | Ok (_, Api.Poa { game; concept; alpha; n; family; budget }) ->
      let c = Result.get_ok (Concept.of_string concept) in
      let worst = Poa.run ~budget ~domains ~concept:c ~alpha (Poa.Trees n) in
      Json.to_string (Api.response_to_json (Api.Poa_ok { game; concept; n; family; alpha; worst }))
  | _ -> "unexpected request " ^ line

let cold_sample_size = 40

type serve_pass = {
  setup_s : float;
  samples : sample list;
  wall_s : float;
  rss_mb : float;
  stats : Api.stats option;
  trace_spans : Pb_trace.span list;
  trace_counters : (string * int) list;
}

let serve_pass ~seed ~traced k =
  let socket = Filename.concat out_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k) in
  let trace_file = Filename.concat out_dir (Printf.sprintf "serve-%d-%d.obs.jsonl" (Unix.getpid ()) k) in
  let (st, pid, conns), setup_s =
    timed (fun () ->
        let st = make_stream ~seed k in
        let pid = spawn_daemon ~socket ~trace_file:(if traced then Some trace_file else None) in
        (st, pid, Array.init 2 (fun _ -> connect socket)))
  in
  let samples, wall_s = closed_loop st conns in
  let rss_mb = peak_rss_mb (Some pid) in
  let stats =
    match Serve_client.request conns.(0) Api.Stats with
    | Ok (Api.Stats_ok s) -> Some s
    | _ ->
        checked [ "stats request failed" ];
        None
  in
  Serve_client.close conns.(1);
  shutdown_daemon pid conns.(0);
  (try Sys.remove socket with Sys_error _ -> ());
  let trace_spans, trace_counters =
    if traced then begin
      let x = Pb_trace.read_obs_trace trace_file in
      Sys.remove trace_file;
      x
    end
    else ([], [])
  in
  if List.length samples <> stream_len then
    checked [ Printf.sprintf "pass %d answered %d of %d requests" k (List.length samples) stream_len ];
  { setup_s; samples; wall_s; rss_mb; stats; trace_spans; trace_counters }

let serve_mixed ~seed ~seconds ~trace =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let k = ref 0 in
  let run ~traced ~seconds =
    repeat_for ~seconds ~min_passes:2 (fun () ->
        incr k;
        serve_pass ~seed ~traced !k)
  in
  let untraced = run ~traced:false ~seconds:(if trace then seconds /. 2. else seconds) in
  let traced = if trace then run ~traced:true ~seconds:(seconds /. 2.) else [] in
  let passes = untraced @ traced in
  let samples = List.concat_map (fun p -> p.samples) passes in
  (* Output checks: no error reply, every repeat (within and across
     passes) byte-identical to the first reply, and a seeded sample of
     first-time replies equal to the payload computed in-process. *)
  let first = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let repeat =
        match Hashtbl.find_opt first s.line with
        | Some r -> Pb_check.same_bytes ~what:"repeat reply" ~expected:r s.reply
        | None ->
            Hashtbl.add first s.line s.reply;
            []
      in
      checked (Pb_check.reply_ok s.reply @ repeat))
    samples;
  let rng = Splitmix.derive (Int64.of_int seed) [ 4 ] in
  let colds = Array.of_list (List.filter (fun s -> s.cls <> Warm) (List.hd passes).samples) in
  let m = Array.length colds in
  List.iter
    (fun s ->
      checked (Pb_check.same_bytes ~what:"reply" ~expected:(in_process s.line) s.reply))
    (if m = 0 then [] else List.init (min cold_sample_size m) (fun _ -> colds.(Splitmix.int rng m)));
  (* End-to-end figures, from the untraced passes. *)
  let lat ps cls =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun s -> if cls = None || Some s.cls = cls then Some (1000. *. s.latency) else None)
          p.samples)
      ps
  in
  let walls ps = List.map (fun p -> p.wall_s) ps in
  report_median "setup_s" "s" (List.map (fun p -> p.setup_s) untraced);
  say "  %-28s %d passes of %d requests" "stream" (List.length untraced) stream_len;
  report_median "qps" "replies/s" (List.map (fun w -> float_of_int stream_len /. w) (walls untraced));
  report_median "latency_p50_ms" "ms" (lat untraced None);
  say "  %-28s %s" "latency_p99_ms"
    (Pb_stats.percentile_to_string "ms" (Pb_stats.percentile 0.99 (lat untraced None)));
  List.iter
    (fun c ->
      let name = cls_name c in
      report_median ("latency_p50_ms." ^ name) "ms" (lat untraced (Some c));
      say "  %-28s %s" ("latency_p99_ms." ^ name)
        (Pb_stats.percentile_to_string "ms" (Pb_stats.percentile 0.99 (lat untraced (Some c)))))
    [ Warm; Cold; Poa ];
  if trace then begin
    (* Client-side latency per request class, from the traced passes. *)
    List.iter
      (fun c ->
        set_time ("serve.latency_p50_ms." ^ cls_name c) (median_or_zero (lat traced (Some c)));
        set_count ("serve.samples." ^ cls_name c) (List.length (lat traced (Some c))))
      [ Warm; Cold; Poa ];
    List.iter
      (fun (name, q, c) ->
        match Pb_stats.percentile q (lat traced (Some c)) with
        | Ok p -> set_time name p.Pb_stats.pvalue
        | Error e -> say "  %-28s %s (reported as 0)" name e)
      [
        ("serve.latency_p99_ms.warm", 0.99, Warm); ("serve.latency_p99_ms.cold", 0.99, Cold);
        ("serve.latency_p90_ms.poa", 0.9, Poa);
      ];
    let compute =
      List.fold_left
        (fun a p -> a +. Pb_trace.total_s (Pb_trace.aggregate ~bench:[] ~program:p.trace_spans) "serve.request")
        0. traced
    in
    let wall = List.fold_left ( +. ) 0. (walls traced) in
    set_time "serve.compute_s" compute;
    set_ratio "serve.compute_share" (Pb_stats.ratio compute wall);
    let sum name =
      List.fold_left (fun a p -> a + (try List.assoc name p.trace_counters with Not_found -> 0)) 0 traced
    in
    set_oracle
      {
        Dist_oracle.scratch = sum "dist_oracle.scratch";
        relaxed = sum "dist_oracle.relaxed";
        kept = sum "dist_oracle.kept";
        dropped = sum "dist_oracle.dropped";
      };
    let stat f = List.fold_left (fun a p -> a + Option.fold ~none:0 ~some:f p.stats) 0 traced in
    set_ratio "serve.cache_hit_ratio"
      (Pb_stats.ratio (float_of_int (stat (fun s -> s.cache_hits))) (float_of_int (stat (fun s -> s.completed))));
    set_count "serve.coalesced" (stat (fun s -> s.coalesced));
    set_count "serve.shed" (stat (fun s -> s.shed));
    let all = Array.of_list samples in
    let (), codec_s =
      timed (fun () ->
          Pb_trace.span "bench.codec" (fun () ->
              Array.iter
                (fun s ->
                  ignore (Api.parse_request_line s.line);
                  match Api.parse_reply_line s.reply with
                  | Ok (id, resp) -> ignore (Api.reply_line ~id resp)
                  | Error _ -> ())
                all))
    in
    set_ratio "api.codec_us" (Pb_stats.ratio (1e6 *. codec_s) (float_of_int (Array.length all)));
    set_ratio "obs.trace_overhead"
      (Pb_stats.ratio (median_or_zero (walls traced)) (median_or_zero (walls untraced)))
  end;
  ( List.map (fun p -> p.setup_s) untraced,
    walls untraced,
    List.fold_left (fun a p -> Float.max a p.rss_mb) 0. untraced )

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let workloads = [ "sweep-trees"; "sweep-store"; "dynamics"; "serve-mixed" ]

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | a :: _ -> die "unexpected argument %S" a
  in
  (match List.tl (Array.to_list Sys.argv) with
  | [ "--probe" ] -> exit 0
  | [ "--daemon"; socket ] -> daemon_main ~socket ~trace_file:None
  | [ "--daemon"; socket; "--daemon-trace"; f ] -> daemon_main ~socket ~trace_file:(Some f)
  | args -> parse args);
  let workload =
    match !workload with
    | Some w when List.mem w workloads -> w
    | _ -> die "--workload must be one of %s" (String.concat ", " workloads)
  in
  let seed = match !seed with Some s -> s | None -> die "--seed N is required" in
  let seconds =
    match !seconds with Some s when s > 0. -> s | _ -> die "--seconds S (> 0) is required"
  in
  let trace = match !trace with Some t -> t | None -> die "--trace 0|1 is required" in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  say "perfbench %s seed=%d seconds=%g trace=%b ocaml=%s" workload seed seconds trace
    Sys.ocaml_version;
  let setups, passes, rss =
    match workload with
    | "sweep-trees" ->
        let s, p = sweep_trees ~seconds ~trace in
        (s, p, peak_rss_mb None)
    | "sweep-store" ->
        let s, p = sweep_store ~seed ~seconds ~trace in
        (s, p, peak_rss_mb None)
    | "dynamics" ->
        let s, p = dynamics ~seed ~seconds ~trace in
        (s, p, peak_rss_mb None)
    | _ -> serve_mixed ~seed ~seconds ~trace
  in
  report_median "pass_s" "s" passes;
  say "  %-28s %.1f MB" "peak_rss_mb" rss;
  say "  %-28s %s" "error_rate"
    (Pb_stats.ratio_to_string (Pb_stats.ratio (float_of_int !failed) (float_of_int !attempted)));
  List.iteri (fun i f -> if i < 20 then say "  FAILED: %s" f) !failures;
  if trace then emit_per_layer ()
  else begin
    metric "setup_s" "s" (median_or_zero setups);
    metric "pass_s" "s" (median_or_zero passes);
    metric "peak_rss_mb" "MB" rss
  end;
  Parallel.shutdown ();
  let correct = !failed = 0 && !attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct); ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                   !metrics) );
          ]));
  exit (if correct then 0 else 1)
