(* See the interface for the architecture.  Implementation notes:

   - One [Unix.select] loop owns every socket.  Computations run
     synchronously inside the loop (they parallelise internally over
     the persistent domain pool), so while a cell is being decided new
     requests pile up in kernel buffers; the next round reads them all
     and coalesces duplicates — the batching window is exactly one
     dispatch round.
   - Per-connection reply order is guaranteed by reply *slots*: every
     admitted line (even one answered instantly from cache or with an
     error) pushes a slot onto the client's FIFO, and only the filled
     prefix is ever flushed to the socket.
   - All reply bytes are produced by [Api.reply_line]; the answer cache
     stores [Api.response] values, not strings, so cached and fresh
     replies serialise through the same single code path. *)

type listen = Unix_socket of string | Tcp of int

type config = {
  listen : listen;
  domains : int option;
  store : string option;
  max_inflight : int;
  max_queue : int;
  client_budget : int option;
}

let default_max_inflight = 64
let default_max_queue = 1024

(* Telemetry (out of band; see Obs).  The server keeps its own plain
   integer stats alongside, because counters only accumulate while a
   sink is active and the [stats] op must answer without one. *)
let c_accepted = Obs.counter "serve.accepted"
let c_coalesced = Obs.counter "serve.coalesced"
let c_shed = Obs.counter "serve.shed"
let c_completed = Obs.counter "serve.completed"
let c_cache_hits = Obs.counter "serve.cache_hits"
let c_budget_warned = Obs.counter "serve.budget_warned"

type slot = string option ref

type client = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (** bytes read, not yet split into lines *)
  mutable partial : string;  (** trailing unterminated line *)
  mutable out : string;  (** reply bytes not yet written *)
  slots : slot Queue.t;  (** replies owed, in request order *)
  mutable inflight : int;  (** admitted requests not yet answered *)
  mutable spent : int;  (** case-budget units charged so far *)
  mutable warned : bool;  (** soft budget warning already issued *)
  mutable eof : bool;  (** peer half-closed its sending side *)
  mutable dead : bool;  (** to be dropped after this round *)
}

type job = {
  key : string;
  request : Api.request;
  mutable waiters : (client * int option * slot) list;  (** newest first *)
}

type state = {
  config : config;
  cert_store : Cert_store.t option;
  answers : (string, Api.response) Hashtbl.t;  (** warm answer cache *)
  families : (string * int, Graph.t list) Hashtbl.t;  (** storeless family memo *)
  jobs : job Queue.t;
  pending : (string, job) Hashtbl.t;  (** key -> queued job (coalescing) *)
  mutable clients : client list;
  mutable draining : bool;
  (* protocol-visible stats *)
  mutable s_accepted : int;
  mutable s_coalesced : int;
  mutable s_shed : int;
  mutable s_completed : int;
  mutable s_cache_hits : int;
  mutable s_budget_warnings : int;
}

(* ------------------------------------------------------------------ *)
(* Computation                                                         *)
(* ------------------------------------------------------------------ *)

let candidates st family n =
  match st.cert_store with
  | Some _ as store -> Sweep.candidates ?store ?domains:st.config.domains family n
  | None -> (
      let key = ((match family with Sweep.Trees -> "trees" | _ -> "connected"), n) in
      match Hashtbl.find_opt st.families key with
      | Some gs -> gs
      | None ->
          let gs = Sweep.candidates ?domains:st.config.domains family n in
          Hashtbl.add st.families key gs;
          gs)

(* Concepts arrive as canonical names already validated against their
   game by [Api.request_of_json], so re-parsing here cannot fail. *)
let bilateral_concept_exn concept =
  match Concept.of_string concept with Ok c -> c | Error _ -> assert false

let generalized_concept_exn concept =
  match Generalized.concept_of_string concept with Ok c -> c | Error _ -> assert false

let compute_check st ~game ~concept ~alpha ~graph6 ~budget =
  let g = Encode.of_graph6 graph6 in
  (* Thunked per game: the checker runs at most once per request, on a
     store miss or with no store at all. *)
  let fresh_entry =
    match game with
    | "generalized" ->
        let c = generalized_concept_exn concept in
        fun () ->
          {
            Cert_store.verdict = Generalized.check ~budget ~alpha c g;
            rho = Generalized.rho ~alpha c g;
          }
    | _ ->
        let c = bilateral_concept_exn concept in
        fun () ->
          { Cert_store.verdict = Concept.check ~budget ~alpha c g; rho = Cost.rho ~alpha g }
  in
  let entry =
    match st.cert_store with
    | None -> fresh_entry ()
    | Some s -> (
        let canon_g6 = Cert_store.canonical_g6 s g in
        (* ~game is part of the key: before it was threaded here, a
           bilateral and a generalized check of the same cell shared a
           certificate — whichever came first answered both. *)
        let key =
          Cert_store.cert_key ~game ~concept ~alpha ~budget:(Some budget) ~canon_g6 ()
        in
        match Cert_store.find s ~key with
        | Some e -> e
        | None ->
            let e = fresh_entry () in
            Cert_store.record s ~game ~key ~canon_g6 ~concept ~alpha
              ~budget:(Some budget) e;
            e)
  in
  Api.Check_ok
    {
      game;
      concept;
      alpha;
      graph6;
      verdict = entry.Cert_store.verdict;
      rho = entry.Cert_store.rho;
    }

(* The answer payload for one computable request, plus its case cost
   (fresh checker calls it may have caused — what the client budget is
   charged).  Exceptions are mapped to typed error replies by the
   caller. *)
let compute st (request : Api.request) =
  match request with
  | Api.Check { game; concept; alpha; graph6; budget } ->
      (compute_check st ~game ~concept ~alpha ~graph6 ~budget, 1)
  | Api.Poa { game = "generalized" as game; concept; alpha; n; family; budget } ->
      (* [Poa.run] is the bilateral funnel; the generalized game goes
         through the game-generic cell primitive over the same
         candidate families (and the same store, under its own keys). *)
      let c = generalized_concept_exn concept in
      let graphs = candidates st (Api.to_sweep_family family) n in
      let worst, _hits =
        Sweep.run_cell_game
          (module Generalized)
          ~budget ?domains:st.config.domains ?store:st.cert_store ~concept:c ~alpha
          graphs
      in
      (Api.Poa_ok { game; concept; n; family; alpha; worst }, worst.Sweep.checked)
  | Api.Poa { game; concept; alpha; n; family; budget } ->
      let target =
        match family with Api.Trees -> Poa.Trees n | Api.Connected -> Poa.Connected n
      in
      let worst =
        Poa.run ~budget ?domains:st.config.domains ?store:st.cert_store
          ~concept:(bilateral_concept_exn concept) ~alpha target
      in
      (Api.Poa_ok { game; concept; n; family; alpha; worst }, worst.Sweep.checked)
  | Api.Sweep_cell { game = "generalized" as game; family; n; concept; alpha; budget }
    ->
      let c = generalized_concept_exn concept in
      let graphs = candidates st (Api.to_sweep_family family) n in
      let worst, _hits =
        Sweep.run_cell_game
          (module Generalized)
          ?budget ?domains:st.config.domains ?store:st.cert_store ~concept:c ~alpha
          graphs
      in
      (Api.Sweep_cell_ok { game; n; concept; alpha; worst }, worst.Sweep.checked)
  | Api.Sweep_cell { game; family; n; concept; alpha; budget } ->
      let graphs = candidates st (Api.to_sweep_family family) n in
      let worst, _hits =
        Sweep.run_cell ?budget ?domains:st.config.domains ?store:st.cert_store
          ~concept:(bilateral_concept_exn concept) ~alpha graphs
      in
      (Api.Sweep_cell_ok { game; n; concept; alpha; worst }, worst.Sweep.checked)
  | Api.Stats | Api.Shutdown -> assert false (* answered at admission *)

(* ------------------------------------------------------------------ *)
(* Per-client plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let new_slot c =
  let s = ref None in
  Queue.push s c.slots;
  s

let fill c slot line =
  slot := Some line;
  c.inflight <- c.inflight - 1

(* Move the filled slot prefix into the write buffer — this is the only
   place reply bytes reach a socket queue, so per-connection order is
   the slot (admission) order by construction. *)
let flush_slots c =
  let b = Buffer.create 256 in
  let rec go () =
    match Queue.peek_opt c.slots with
    | Some { contents = Some line } ->
        ignore (Queue.pop c.slots);
        Buffer.add_string b line;
        Buffer.add_char b '\n';
        go ()
    | _ -> ()
  in
  go ();
  if Buffer.length b > 0 then c.out <- c.out ^ Buffer.contents b

let op_name = function
  | Api.Check _ -> "check"
  | Api.Poa _ -> "poa"
  | Api.Sweep_cell _ -> "sweep_cell"
  | Api.Stats -> "stats"
  | Api.Shutdown -> "shutdown"

let stats_response st =
  Api.Stats_ok
    {
      Api.accepted = st.s_accepted;
      coalesced = st.s_coalesced;
      shed = st.s_shed;
      completed = st.s_completed;
      cache_hits = st.s_cache_hits;
      budget_warnings = st.s_budget_warnings;
    }

let completed st c slot ~id response =
  st.s_completed <- st.s_completed + 1;
  Obs.incr c_completed;
  fill c slot (Api.reply_line ~id response)

(* Charge [cost] cases to [c]'s budget; soft-warn once at 80%. *)
let charge st c cost =
  c.spent <- c.spent + cost;
  match st.config.client_budget with
  | Some b when (not c.warned) && c.spent * 5 >= b * 4 ->
      c.warned <- true;
      st.s_budget_warnings <- st.s_budget_warnings + 1;
      Obs.incr c_budget_warned;
      Printf.eprintf "bncg: serve: client over 80%% of case budget (%d/%d)\n%!" c.spent b
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let admit st c line =
  let reply_now ~id response =
    let slot = new_slot c in
    c.inflight <- c.inflight + 1;
    completed st c slot ~id response
  in
  match Api.parse_request_line line with
  | Error (id, msg) ->
      reply_now ~id (Api.Error { code = Api.Bad_request; message = msg })
  | Ok (id, Api.Stats) ->
      st.s_accepted <- st.s_accepted + 1;
      Obs.incr c_accepted;
      reply_now ~id (stats_response st)
  | Ok (id, Api.Shutdown) ->
      st.s_accepted <- st.s_accepted + 1;
      Obs.incr c_accepted;
      st.draining <- true;
      reply_now ~id Api.Shutdown_ok
  | Ok (id, request) -> (
      let key = Api.request_key request in
      match Hashtbl.find_opt st.answers key with
      | Some response ->
          (* Warm path: answered without touching the queue, so cache
             hits are never shed and never charged. *)
          st.s_accepted <- st.s_accepted + 1;
          Obs.incr c_accepted;
          st.s_cache_hits <- st.s_cache_hits + 1;
          Obs.incr c_cache_hits;
          reply_now ~id response
      | None -> (
          let over_budget =
            match st.config.client_budget with Some b -> c.spent >= b | None -> false
          in
          if over_budget then
            reply_now ~id
              (Api.Error
                 {
                   code = Api.Budget_exceeded;
                   message =
                     Printf.sprintf "case budget spent (%d of %d)" c.spent
                       (Option.get st.config.client_budget);
                 })
          else if c.inflight >= st.config.max_inflight then begin
            st.s_shed <- st.s_shed + 1;
            Obs.incr c_shed;
            reply_now ~id
              (Api.Error
                 {
                   code = Api.Overloaded;
                   message =
                     Printf.sprintf "client in-flight cap reached (%d)"
                       st.config.max_inflight;
                 })
          end
          else if Queue.length st.jobs >= st.config.max_queue then begin
            st.s_shed <- st.s_shed + 1;
            Obs.incr c_shed;
            reply_now ~id
              (Api.Error
                 {
                   code = Api.Overloaded;
                   message = Printf.sprintf "queue full (%d)" st.config.max_queue;
                 })
          end
          else begin
            st.s_accepted <- st.s_accepted + 1;
            Obs.incr c_accepted;
            let slot = new_slot c in
            c.inflight <- c.inflight + 1;
            match Hashtbl.find_opt st.pending key with
            | Some job ->
                (* Coalesce: same question already queued this round. *)
                st.s_coalesced <- st.s_coalesced + 1;
                Obs.incr c_coalesced;
                job.waiters <- (c, id, slot) :: job.waiters
            | None ->
                let job = { key; request; waiters = [ (c, id, slot) ] } in
                Hashtbl.add st.pending key job;
                Queue.push job st.jobs
          end))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run_job st job =
  let response, cost =
    match
      Obs.span "serve.request"
        ~args:
          [
            ("op", Json.String (op_name job.request));
            ("waiters", Json.Int (List.length job.waiters));
          ]
        (fun () -> compute st job.request)
    with
    | result -> result
    | exception Invalid_argument msg ->
        (Api.Error { code = Api.Bad_request; message = msg }, 0)
    | exception exn ->
        (Api.Error { code = Api.Internal; message = Printexc.to_string exn }, 0)
  in
  (match response with
  | Api.Error _ -> ()
  | _ -> Hashtbl.replace st.answers job.key response);
  List.iter
    (fun (c, id, slot) ->
      charge st c cost;
      completed st c slot ~id response)
    (List.rev job.waiters)

let dispatch st =
  while not (Queue.is_empty st.jobs) do
    let job = Queue.pop st.jobs in
    Hashtbl.remove st.pending job.key;
    run_job st job
  done

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* A line longer than this is not a protocol conversation; answer with
   a typed error and drop the peer rather than buffering forever. *)
let max_line_bytes = 1 lsl 20

let read_client st c =
  let chunk = Bytes.create 65536 in
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
      c.dead <- true
  | 0 -> c.eof <- true
  | len ->
      Buffer.add_subbytes c.rbuf chunk 0 len;
      let data = c.partial ^ Buffer.contents c.rbuf in
      Buffer.clear c.rbuf;
      let parts = String.split_on_char '\n' data in
      let rec go = function
        | [] -> ()
        | [ last ] ->
            if String.length last > max_line_bytes then begin
              (* Not a protocol conversation: answer once, hang up. *)
              let slot = new_slot c in
              c.inflight <- c.inflight + 1;
              completed st c slot ~id:None
                (Api.Error
                   { code = Api.Bad_request; message = "request line too long" });
              c.partial <- "";
              c.eof <- true
            end
            else c.partial <- last
        | line :: rest ->
            if String.trim line <> "" then admit st c line;
            go rest
      in
      go parts

let write_client c =
  if c.out <> "" then
    let b = Bytes.of_string c.out in
    match Unix.write c.fd b 0 (Bytes.length b) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
        (* Peer went away mid-reply: drop the client, keep serving. *)
        c.dead <- true
    | n -> c.out <- String.sub c.out n (String.length c.out - n)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

let listen_fd = function
  | Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 128;
      fd

let listen_name = function
  | Unix_socket path -> path
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port

(* Seconds a drain may spend flushing replies to slow readers before
   the daemon gives up on them and exits anyway. *)
let drain_flush_deadline = 5.0

let run ?(on_ready = fun () -> ()) config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st =
    {
      config;
      cert_store = Option.map Cert_store.open_store config.store;
      answers = Hashtbl.create 1024;
      families = Hashtbl.create 8;
      jobs = Queue.create ();
      pending = Hashtbl.create 64;
      clients = [];
      draining = false;
      s_accepted = 0;
      s_coalesced = 0;
      s_shed = 0;
      s_completed = 0;
      s_cache_hits = 0;
      s_budget_warnings = 0;
    }
  in
  let stop_signal = Sys.Signal_handle (fun _ -> st.draining <- true) in
  let old_term = Sys.signal Sys.sigterm stop_signal in
  let old_int = Sys.signal Sys.sigint stop_signal in
  let lfd = ref (Some (listen_fd config.listen)) in
  let drain_started = ref None in
  Fun.protect
    ~finally:(fun () ->
      (* Once a drain has started the process is on its way out, and a
         stop signal during the teardown that follows (here, and the
         caller's exit with the domain pool's [at_exit]) must not kill
         it: after a drain the stop signals stay ignored instead of
         falling back to their (fatal) previous handlers. *)
      let term, int =
        if st.draining then (Sys.Signal_ignore, Sys.Signal_ignore) else (old_term, old_int)
      in
      Sys.set_signal Sys.sigterm term;
      Sys.set_signal Sys.sigint int;
      Option.iter close_noerr !lfd;
      (match config.listen with
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ());
      List.iter (fun c -> close_noerr c.fd) st.clients;
      Option.iter Cert_store.close st.cert_store)
  @@ fun () ->
  Printf.eprintf "bncg: serve listening on %s\n%!" (listen_name config.listen);
  on_ready ();
  (* A drain is complete when nothing is queued and every reply byte
     has reached its socket; a slow (or gone) reader cannot hold the
     exit hostage past the flush deadline. *)
  let finished () =
    st.draining && Queue.is_empty st.jobs
    && List.for_all (fun c -> c.dead || (c.out = "" && Queue.is_empty c.slots)) st.clients
  in
  let drain_expired () =
    match !drain_started with
    | Some t0 when st.draining -> Unix.gettimeofday () -. t0 > drain_flush_deadline
    | _ -> false
  in
  let continue = ref true in
  while !continue do
    (* A drain closes the listening socket first: no new admissions. *)
    if st.draining && !lfd <> None then begin
      Option.iter close_noerr !lfd;
      lfd := None;
      if !drain_started = None then drain_started := Some (Unix.gettimeofday ())
    end;
    let reads =
      (match !lfd with Some fd -> [ fd ] | None -> [])
      @ List.filter_map
          (fun c -> if c.dead || c.eof then None else Some c.fd)
          st.clients
    in
    let writes = List.filter_map (fun c -> if c.out = "" then None else Some c.fd) st.clients in
    (match Unix.select reads writes [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        (* Accept. *)
        (match !lfd with
        | Some fd when List.mem fd readable && not st.draining -> (
            match Unix.accept fd with
            | cfd, _ ->
                Unix.set_nonblock cfd;
                st.clients <-
                  st.clients
                  @ [
                      {
                        fd = cfd;
                        rbuf = Buffer.create 256;
                        partial = "";
                        out = "";
                        slots = Queue.create ();
                        inflight = 0;
                        spent = 0;
                        warned = false;
                        eof = false;
                        dead = false;
                      };
                    ]
            | exception Unix.Unix_error (_, _, _) -> ())
        | _ -> ());
        (* Read + admit. *)
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd readable then read_client st c)
          st.clients;
        (* Compute every queued job (duplicates already coalesced). *)
        dispatch st;
        ignore writable;
        (* Stage and (optimistically — EAGAIN is handled) write
           replies in the same round they were computed, so a reply's
           latency never includes a select timeout. *)
        List.iter
          (fun c ->
            if not c.dead then begin
              flush_slots c;
              if c.out <> "" then write_client c
            end)
          st.clients);
    (* Drop finished clients: dead ones, and half-closed ones with
       nothing left to say. *)
    List.iter
      (fun c ->
        if (not c.dead) && c.eof && c.out = "" && Queue.is_empty c.slots then
          c.dead <- true)
      st.clients;
    List.iter (fun c -> if c.dead then close_noerr c.fd) st.clients;
    st.clients <- List.filter (fun c -> not c.dead) st.clients;
    Obs.tick ();
    if finished () || drain_expired () then continue := false
  done
