(* A serve daemon that stop-signals itself during its own teardown.

     serve_teardown.exe SOCKET STORE

   Runs [Serve.run] in this process on SOCKET with a certificate store
   at STORE.  Once a [shutdown] request has drained it and [Serve.run]
   has returned, the process sends itself SIGTERM twice: at once, and
   again from an [at_exit] hook that runs before the domain pool is
   torn down.  A stop signal that arrives after the drain must not kill
   the daemon, so this exits 0; it dies by SIGTERM if either signal
   finds a fatal handler. *)

let () =
  let socket = Sys.argv.(1) and store = Sys.argv.(2) in
  (* Start the pool first, so its [at_exit] teardown is registered
     before (and so runs after) the hook below. *)
  ignore (Parallel.map ~domains:2 Fun.id [ 1; 2 ]);
  at_exit (fun () -> Unix.kill (Unix.getpid ()) Sys.sigterm);
  Serve.run
    {
      Serve.listen = Serve.Unix_socket socket;
      domains = Some 2;
      store = Some store;
      max_inflight = Serve.default_max_inflight;
      max_queue = Serve.default_max_queue;
      client_budget = None;
    };
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  exit 0
