open Helpers

(* End-to-end contract of the [bncg serve] daemon, driven through the
   real binary over a Unix socket: answers byte-identical to the CLI
   (traced or not, coalesced or not, cached or not), typed errors for
   malformed and shed requests, per-client budgets, and a graceful
   exit 0 on SIGTERM — the same properties the CI smoke job gates. *)

let bin = "../bin/bncg_cli.exe"

(* The exit status of [pid], failing if it is still running 10s on. *)
let wait_exit pid =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "daemon did not exit within 10s"
        end
        else begin
          ignore (Unix.select [] [] [] 0.05);
          wait ()
        end
    | _, status -> status
  in
  wait ()

let expect_exit_0 ~errf = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Alcotest.failf "daemon exited %d (stderr: %s)" c errf
  | Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped"

(* Spawns [bncg serve --socket ...] with [args], runs [f socket], then
   SIGTERMs the daemon and fails unless it exits 0 within 10s — every
   test is therefore also a graceful-shutdown test. *)
let with_daemon ?(args = []) f =
  let dir = Filename.temp_file "bncg-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let errf = Filename.concat dir "stderr" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile errf [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
  let pid =
    Unix.create_process bin
      (Array.of_list ([ bin; "serve"; "--socket"; sock ] @ args))
      null Unix.stdout err
  in
  Unix.close null;
  Unix.close err;
  let reap () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    wait_exit pid
  in
  let result =
    try f sock
    with e ->
      ignore (reap ());
      raise e
  in
  expect_exit_0 ~errf (reap ());
  result

let connect sock = Serve_client.connect (Serve_client.Unix_socket sock)

let recv_exn c =
  match Serve_client.recv_line c with
  | Some line -> line
  | None -> Alcotest.fail "connection closed unexpectedly"

(* One write carrying several lines: lands in the daemon's buffer as a
   single chunk, so all of them are admitted in the same dispatch round
   — the deterministic setup for coalescing and shedding tests. *)
let send_batch c lines =
  Serve_client.send_line c (String.concat "\n" lines)

let check_line alpha =
  Printf.sprintf "{\"op\":\"check\",\"concept\":\"PS\",\"alpha\":%g,\"graph\":\"Dhc\"}" alpha

let cli_check_json alpha =
  let r =
    Test_cli.run_cli
      [ "check"; "--json"; "-a"; Printf.sprintf "%g" alpha; "-c"; "PS"; "-g"; "Dhc" ]
  in
  (* exit 1 is the CLI's "unstable" signal, not a failure *)
  check_true "cli exit" (r.Test_cli.code = 0 || r.Test_cli.code = 1);
  String.trim r.Test_cli.stdout

let expect_error name code line =
  match Api.parse_reply_line line with
  | Ok (_, Api.Error e) ->
      check_true
        (Printf.sprintf "%s: code %s, got %s" name (Api.error_code_name code)
           (Api.error_code_name e.code))
        (e.code = code)
  | Ok _ -> Alcotest.failf "%s: expected an error reply, got %s" name line
  | Error e -> Alcotest.failf "%s: unparseable reply %S: %s" name line e

let stats_of c =
  Serve_client.send_line c "{\"op\":\"stats\"}";
  match Api.parse_reply_line (recv_exn c) with
  | Ok (_, Api.Stats_ok s) -> s
  | Ok (_, _) | Error _ -> Alcotest.fail "stats reply malformed"

let suite =
  [
    slow "daemon replies are byte-identical to the CLI" (fun () ->
        let cli = cli_check_json 2. in
        with_daemon (fun sock ->
            let c = connect sock in
            (match Serve_client.request_raw c (check_line 2.) with
            | Some reply -> Alcotest.(check string) "socket == CLI bytes" cli reply
            | None -> Alcotest.fail "no reply");
            (* id-wrapped form carries the same payload *)
            Serve_client.send_line c
              "{\"id\":7,\"op\":\"check\",\"concept\":\"PS\",\"alpha\":2,\"graph\":\"Dhc\"}";
            Alcotest.(check string)
              "id wrapper" (Printf.sprintf "{\"id\":7,\"result\":%s}" cli)
              (recv_exn c);
            Serve_client.close c));
    slow "traced daemon replies are byte-identical to untraced" (fun () ->
        let cli = cli_check_json 3. in
        Test_cli.with_tmp ".jsonl" @@ fun trace ->
        with_daemon ~args:[ "--trace"; trace; "--heartbeat"; "0.001" ] (fun sock ->
            let c = connect sock in
            (match Serve_client.request_raw c (check_line 3.) with
            | Some reply -> Alcotest.(check string) "traced socket == CLI bytes" cli reply
            | None -> Alcotest.fail "no reply");
            Serve_client.close c);
        (* the daemon has exited: its trace is flushed and every line
           must parse *)
        let lines =
          In_channel.with_open_text trace In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> String.trim l <> "")
        in
        check_true "trace is non-empty" (lines <> []);
        List.iter
          (fun l ->
            match Json.of_string l with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "trace line %S: %s" l e)
          lines);
    slow "coalesced and cached answers are byte-identical" (fun () ->
        with_daemon (fun sock ->
            let c = connect sock in
            send_batch c [ check_line 5.; check_line 5. ];
            let r1 = recv_exn c and r2 = recv_exn c in
            Alcotest.(check string) "coalesced == computed" r1 r2;
            (match Serve_client.request_raw c (check_line 5.) with
            | Some r3 -> Alcotest.(check string) "cache hit == computed" r1 r3
            | None -> Alcotest.fail "no reply");
            let s = stats_of c in
            check_true "coalesced counted" (s.Api.coalesced >= 1);
            check_true "cache hit counted" (s.Api.cache_hits >= 1);
            Serve_client.close c));
    slow "concurrent pipelined clients match the sequential CLI" (fun () ->
        let alphas = [ 1.; 2.; 3.; 4.; 6.; 8. ] in
        let expected = List.map cli_check_json alphas in
        with_daemon (fun sock ->
            let conns = List.init 4 (fun _ -> connect sock) in
            (* all clients fire their whole pipeline at once *)
            List.iter (fun c -> send_batch c (List.map check_line alphas)) conns;
            List.iteri
              (fun i c ->
                List.iteri
                  (fun k want ->
                    Alcotest.(check string)
                      (Printf.sprintf "client %d reply %d" i k)
                      want (recv_exn c))
                  expected;
                Serve_client.close c)
              conns));
    slow "admission control sheds with a typed overloaded error" (fun () ->
        with_daemon ~args:[ "--max-inflight"; "1" ] (fun sock ->
            let c = connect sock in
            (* both lines land in one dispatch round; the cap admits the
               first and sheds the second, in reply order *)
            send_batch c [ check_line 2.; check_line 7. ];
            let r1 = recv_exn c and r2 = recv_exn c in
            (match Api.parse_reply_line r1 with
            | Ok (_, Api.Check_ok _) -> ()
            | _ -> Alcotest.failf "first reply should be the answer, got %s" r1);
            expect_error "second reply" Api.Overloaded r2;
            let s = stats_of c in
            check_true "shed counted" (s.Api.shed >= 1);
            Serve_client.close c));
    slow "per-client budget: hard reject, cache hits stay free" (fun () ->
        with_daemon ~args:[ "--client-budget"; "2" ] (fun sock ->
            let c = connect sock in
            ignore (Serve_client.request_raw c (check_line 2.));
            ignore (Serve_client.request_raw c (check_line 7.));
            (* budget spent: a fresh computation is refused... *)
            (match Serve_client.request_raw c (check_line 9.) with
            | Some r -> expect_error "over budget" Api.Budget_exceeded r
            | None -> Alcotest.fail "no reply");
            (* ...but a warm repeat is free and still answered *)
            (match Serve_client.request_raw c (check_line 2.) with
            | Some r -> (
                match Api.parse_reply_line r with
                | Ok (_, Api.Check_ok _) -> ()
                | _ -> Alcotest.failf "cache hit refused: %s" r)
            | None -> Alcotest.fail "no reply");
            let s = stats_of c in
            check_true "soft warning fired" (s.Api.budget_warnings >= 1);
            Serve_client.close c);
            (* a fresh connection has a fresh budget *)
        with_daemon ~args:[ "--client-budget"; "1" ] (fun sock ->
            let c = connect sock in
            match Serve_client.request_raw c (check_line 2.) with
            | Some r -> (
                match Api.parse_reply_line r with
                | Ok (_, Api.Check_ok _) -> Serve_client.close c
                | _ -> Alcotest.failf "fresh budget refused: %s" r)
            | None -> Alcotest.fail "no reply"));
    slow "malformed lines get bad_request and the connection survives" (fun () ->
        with_daemon (fun sock ->
            let c = connect sock in
            List.iter
              (fun line ->
                match Serve_client.request_raw c line with
                | Some r -> expect_error line Api.Bad_request r
                | None -> Alcotest.failf "connection closed on %S" line)
              [
                "this is not json"; "{\"op\":\"nope\"}"; "[1,2,3]";
                "{\"op\":\"check\",\"concept\":\"PS\",\"alpha\":0,\"graph\":\"Dhc\"}";
                "{\"op\":\"poa\",\"concept\":\"PS\",\"alpha\":2,\"family\":\"connected\",\"n\":9}";
              ];
            (* still serving *)
            match Serve_client.request_raw c (check_line 2.) with
            | Some r -> (
                match Api.parse_reply_line r with
                | Ok (_, Api.Check_ok _) -> Serve_client.close c
                | _ -> Alcotest.failf "connection degraded: %s" r)
            | None -> Alcotest.fail "connection closed after errors"));
    slow "shutdown request drains and exits 0" (fun () ->
        with_daemon (fun sock ->
            let c = connect sock in
            send_batch c [ check_line 2.; "{\"op\":\"shutdown\"}" ];
            (* queued work is still answered before the goodbye *)
            (match Api.parse_reply_line (recv_exn c) with
            | Ok (_, Api.Check_ok _) -> ()
            | _ -> Alcotest.fail "queued request dropped on shutdown");
            (match Api.parse_reply_line (recv_exn c) with
            | Ok (_, Api.Shutdown_ok) -> ()
            | _ -> Alcotest.fail "no shutdown ack");
            Serve_client.close c));
    slow "SIGTERM during teardown after a drain exits 0" (fun () ->
        (* serve_teardown.exe signals itself after [Serve.run] returns
           and again at exit, so the signal lands in the teardown on
           every run, with no timing involved. *)
        let dir = Filename.temp_file "bncg-teardown" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o700;
        let sock = Filename.concat dir "d.sock" in
        let errf = Filename.concat dir "stderr" in
        let err = Unix.openfile errf [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
        let helper = "./serve_teardown.exe" in
        let pid =
          Unix.create_process helper
            [| helper; sock; Filename.concat dir "store" |]
            Unix.stdin Unix.stdout err
        in
        Unix.close err;
        (try
           let c = connect sock in
           send_batch c [ check_line 2.; "{\"op\":\"shutdown\"}" ];
           (match Api.parse_reply_line (recv_exn c) with
           | Ok (_, Api.Check_ok _) -> ()
           | _ -> Alcotest.fail "queued request dropped on shutdown");
           (match Api.parse_reply_line (recv_exn c) with
           | Ok (_, Api.Shutdown_ok) -> ()
           | _ -> Alcotest.fail "no shutdown ack");
           Serve_client.close c
         with e ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           ignore (Unix.waitpid [] pid);
           raise e);
        expect_exit_0 ~errf (wait_exit pid));
    slow "poa over the socket matches bncg poa --json" (fun () ->
        let r =
          Test_cli.run_cli
            [ "poa"; "--json"; "-a"; "2"; "-c"; "PS"; "-n"; "5" ]
        in
        check_int "cli poa exit" 0 r.Test_cli.code;
        let cli = String.trim r.Test_cli.stdout in
        with_daemon (fun sock ->
            let c = connect sock in
            (match
               Serve_client.request_raw c
                 "{\"op\":\"poa\",\"concept\":\"PS\",\"alpha\":2,\"family\":\"trees\",\"n\":5}"
             with
            | Some reply -> Alcotest.(check string) "poa socket == CLI bytes" cli reply
            | None -> Alcotest.fail "no reply");
            Serve_client.close c));
    slow "generalized answers match the CLI; caches never cross games" (fun () ->
        let cli =
          let r =
            Test_cli.run_cli
              [
                "check"; "--json"; "-a"; "2"; "--game"; "generalized"; "-c"; "PS";
                "-g"; "Dhc";
              ]
          in
          check_true "cli exit" (r.Test_cli.code = 0 || r.Test_cli.code = 1);
          String.trim r.Test_cli.stdout
        in
        with_daemon (fun sock ->
            let c = connect sock in
            (* warm the bilateral entry for the same (graph, alpha):
               before keys were game-scoped, the generalized request
               below would have been answered from it *)
            ignore (Serve_client.request_raw c (check_line 2.));
            let s0 = stats_of c in
            let gline =
              "{\"op\":\"check\",\"game\":\"generalized\",\"concept\":\"PS\",\"alpha\":2,\"graph\":\"Dhc\"}"
            in
            (match Serve_client.request_raw c gline with
            | Some reply ->
                Alcotest.(check string) "generalized socket == CLI bytes" cli reply
            | None -> Alcotest.fail "no reply");
            let s1 = stats_of c in
            check_int "no cross-game cache hit" s0.Api.cache_hits s1.Api.cache_hits;
            (match Serve_client.request_raw c gline with
            | Some reply -> Alcotest.(check string) "warm == computed" cli reply
            | None -> Alcotest.fail "no reply");
            let s2 = stats_of c in
            check_true "warm generalized repeat is a cache hit"
              (s2.Api.cache_hits > s1.Api.cache_hits);
            Serve_client.close c));
  ]
