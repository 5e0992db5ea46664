(** The [bncg serve] equilibrium-oracle daemon.

    A long-running process that answers {!Api} requests — check / PoA /
    sweep-cell queries — over a line-delimited JSON protocol on a Unix
    or TCP socket, dispatching computations onto the persistent
    {!Parallel} domain pool and caching answers.  This is the service
    face of the repo: the same machinery [bncg check/poa/sweep] runs
    once per process, kept hot behind a socket.

    {b Event loop.}  Single-threaded [select]: reads, admission,
    computation and writes all interleave in one loop, so there is no
    shared-state concurrency beyond the domain pool the computations
    already use.  Replies on one connection always come back in request
    order.

    {b Batching.}  Requests are keyed by their canonical encoding
    ({!Api.request_key}); identical requests queued in the same
    dispatch round — N clients asking for the same (graph, concept, α,
    budget) cell — coalesce into one computation whose answer is
    written to every requester ([serve.coalesced] counts the
    duplicates).  Completed answers additionally enter an in-memory
    answer cache, so a warm repeat costs two hashtable lookups and a
    write ([serve.cache_hits]).  With [store] set, every individual
    certificate also persists in the content-addressed {!Cert_store},
    shared with the offline CLI — a sweep warmed by the CLI warms the
    daemon and vice versa.

    {b Admission control.}  Three gates, each answered with a typed
    error reply rather than a dropped connection: a per-client
    in-flight cap and a global queue-depth cap (both [overloaded], the
    Demarch-style hard shed), and a per-client case budget — every
    request is charged the number of fresh checker calls it caused —
    with a soft warning at 80% (stderr + counter, out of band) and a
    hard [budget_exceeded] reject once spent (the quoracle-style
    budget state).

    {b Determinism.}  Answer payloads are pure functions of the
    request: coalesced, cached, traced and untraced answers are all
    byte-identical, and equal to the corresponding [bncg check/poa
    --json] output ({!Api}'s shared codecs).  Telemetry
    ([serve.accepted/coalesced/shed/completed] counters, per-request
    spans, heartbeats) goes through {!Obs} and is provably out of band.

    {b Shutdown.}  SIGTERM/SIGINT (or a [shutdown] request) stops
    accepting, drains queued requests, flushes replies and the
    certificate-store journal, and exits 0.  Once a drain has started,
    a further SIGTERM/SIGINT cannot kill the process: {!run} leaves
    both ignored when it returns, so a signal during the teardown that
    follows (the store close, the domain pool's [at_exit]) is
    harmless. *)

type listen =
  | Unix_socket of string  (** path; any stale socket file is replaced *)
  | Tcp of int  (** 127.0.0.1 port *)

type config = {
  listen : listen;
  domains : int option;  (** {!Parallel} fan-out per computation *)
  store : string option;  (** certificate-store directory (shared answer cache) *)
  max_inflight : int;  (** per-client queued-request cap *)
  max_queue : int;  (** global queued-request cap *)
  client_budget : int option;  (** per-client case budget; [None] = unlimited *)
}

val default_max_inflight : int
(** [64] *)

val default_max_queue : int
(** [1024] *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Binds, announces readiness (one [bncg: serve listening on ...]
    stderr line, then [on_ready ()]), and blocks in the event loop
    until shutdown.  Returns normally after a graceful drain, with
    SIGTERM and SIGINT left ignored — the caller decides the exit
    code.  If it raises before any drain started, the previous
    handlers are restored.
    @raise Unix.Unix_error if the socket cannot be bound. *)
