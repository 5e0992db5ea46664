(** Deterministic observability: spans, counters, heartbeats.

    Multi-minute exhaustive sweeps and fuzz campaigns used to run as
    black boxes — a killed [bncg sweep] said nothing about where the
    time went or how far each cell got.  This module is the one
    telemetry layer those workloads share: structured {e spans}
    (monotonic enter/exit timestamps around a unit of work), named
    monotone {e counters}, and periodic {e heartbeat} progress events,
    written as JSONL (one {!Json}-printable object per line) and
    convertible to Chrome [trace_event] format for Perfetto /
    about://tracing ({!export_chrome}).

    {b Determinism contract.}  Telemetry is strictly out of band:

    - when no sink is active ({!enabled} is [false]) every entry point
      is a no-op costing one atomic load, and
    - when a sink {e is} active, instrumentation only reads clocks and
      appends to the trace — it never influences scheduling decisions,
      fold order or any computed value.

    Consequently every bit-identity contract in the repo (sweep worst
    cells, byte-identical fuzz reports, invariance under domain count)
    holds with tracing off, tracing on, and any heartbeat interval —
    the [test_obs] fuzz bank pins this.

    Heartbeats are cooperative: there is no ticker thread.  Instrumented
    loops call {!tick}, which emits a heartbeat (and echoes a one-line
    progress summary to stderr) only when the configured interval has
    elapsed.  A heartbeat carries a snapshot of every registered counter
    plus the {!Dist_oracle} process-wide repair statistics, so
    candidates/sec, cache-hit rates and oracle behaviour can be read off
    a trace without any bespoke plumbing.

    Counters update only while a sink is active; they are process-wide
    atomics shared by every domain.  The writer side is
    mutex-serialised, so workers may emit spans concurrently. *)

type counter
(** A named, process-wide monotone counter (interned: {!counter}
    returns the same cell for the same name). *)

val counter : string -> counter
(** Interns [name] in the global registry.  Cheap enough for setup
    paths; hot loops should hoist the handle. *)

val add : counter -> int -> unit
(** Adds (atomically) — a no-op unless {!enabled}. *)

val incr : counter -> unit
(** [incr c] is [add c 1]. *)

val value : counter -> int
val reset_counters : unit -> unit
(** Zeroes every registered counter (tests). *)

val snapshot : unit -> (string * int) list
(** Every registered counter plus the [dist_oracle.*] global repair
    stats, sorted by name. *)

val enabled : unit -> bool
(** Whether a sink is active (fast: one atomic load). *)

val start : ?trace:string -> ?heartbeat:float -> ?echo:bool -> unit -> unit
(** Activates the sink.  [trace] opens (truncating) a JSONL trace file
    whose first line is a [meta] event; [heartbeat] enables heartbeat
    events every so many seconds (must be finite and positive);
    [echo] (default [true]) additionally prints each heartbeat as one
    stderr line.  At least one of [trace]/[heartbeat] should be given
    for the call to be useful, but neither is required.
    @raise Invalid_argument if already started or [heartbeat <= 0]. *)

val stop : unit -> unit
(** Emits a final counter snapshot, flushes and closes the trace, and
    deactivates the sink.  Idempotent. *)

val span :
  ?args:(string * Json.t) list ->
  ?result_args:('a -> (string * Json.t) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span name f] runs [f ()], emitting one complete-span event
    (begin timestamp + duration, in microseconds since [start], tagged
    with the executing domain id) when a trace file is active.  The
    event is emitted even if [f] raises.  [result_args] appends args
    computed from [f]'s result, for figures only known at the end (it
    is not called if [f] raises).  Without a sink this is exactly
    [f ()]. *)

val tick : unit -> unit
(** Heartbeat opportunity: if a sink with a heartbeat interval is
    active and the interval has elapsed since the last heartbeat, emits
    a heartbeat event (sequence number + counter snapshot).  Called
    from instrumented loops — notably once per work item inside
    {!Parallel} — so any workload running on the pool heartbeats
    without further plumbing. *)

val now_us : unit -> int
(** Monotonic clock, microseconds (arbitrary origin).  For
    instrumentation that accumulates busy time into counters. *)

(** {1 Trace event schema}

    Every line of a trace file is one JSON object:

    - [{"ev":"meta","version":1,"clock":"monotonic"}] — first line;
    - [{"ev":"span","name":N,"ts_us":T,"dur_us":D,"tid":I,"args":{..}}]
      — one completed span ([args] omitted when empty);
    - [{"ev":"heartbeat","seq":K,"ts_us":T,"counters":{..}}] —
      periodic progress;
    - [{"ev":"counters","ts_us":T,"counters":{..}}] — final snapshot,
      written by {!stop}.

    Timestamps are integer microseconds since {!start} on the monotonic
    clock, so every value round-trips exactly through {!Json}. *)

val export_chrome : src:string -> dst:string option -> (int, string) result
(** Converts a JSONL trace to Chrome [trace_event] JSON (the format
    Perfetto and about://tracing load): spans become complete (["X"])
    events, heartbeats instant events, counter snapshots per-name
    counter (["C"]) events.  Every line of [src] must parse with
    {!Json.of_string} — the first offending line is reported as
    [Error].  With [dst = None] the trace is only validated.  Returns
    the number of Chrome events produced. *)
