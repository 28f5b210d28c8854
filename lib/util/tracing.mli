(** Structured event tracing: begin/end spans, instant events and
    counter samples recorded into per-domain ring buffers, exported as
    Chrome trace-event JSON ([chrome://tracing] / Perfetto).

    Where {!Metrics} answers "how much, in aggregate", this layer
    answers "what happened when": the timeline of semi-naive rounds,
    closure constructions, encoding phases, per-model solver descents
    and per-tuple batch tasks, with OCaml domains mapped to trace
    [tid]s. Spans are not opened here: [Metrics.time] is the one
    span primitive, and it calls {!begin_span}/{!end_span} under its
    timer's name. The span vocabulary and the JSON schema are
    documented in [docs/OBSERVABILITY.md]; recording is driven by
    [whyprov --trace], [satsolve --trace] and the bench harness's
    [--trace-out].

    {b Cost.} Recording is disabled by default; every entry point but
    the span hooks is a single atomic-flag check before touching the
    clock or allocating (verified by the [tracing:*] kernels in
    [bench/micro.ml]). Enabled,
    an event is one cell write into the recording domain's own ring
    buffer — no locks, no I/O.

    {b Domain safety.} Each domain records into a buffer it owns
    exclusively (created on first use, registered once under a mutex),
    so emission is race-free by construction and a worker's spans can
    never interleave with another domain's. {!set_enabled}, {!reset}
    and the export functions must be driven from a coordinating domain
    while no other domain is recording (the batch pool joins its
    workers before control returns, so flushing at process exit is
    safe).

    {b Overflow.} Buffers hold {!set_capacity} events per domain
    (default 2^18). A full buffer wraps, overwriting the oldest events
    and counting them in {!dropped_events} — the tail of a long run is
    what a stalling-solve investigation needs. The exporters re-balance
    begin/end pairs (orphaned ends dropped, unclosed begins closed at
    the buffer's last timestamp), so the output is well-formed even
    after wrap-around. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Off by default. A [Metrics.time] span samples the flag when it
    opens, so toggling mid-span still records whole begin/end pairs. *)

val is_enabled : unit -> bool
(** Guard for call sites whose argument preparation would allocate
    (e.g. rendering a fact into a span label). *)

val set_capacity : int -> unit
(** Per-domain ring capacity (events). Applies to buffers created
    after the call; call before {!set_enabled}. Clamped to [>= 16]. *)

val reset : unit -> unit
(** Discards every recorded event and zeroes the dropped count.
    Buffer registrations persist. *)

(** {1 Recording}

    [args] are attached to the event verbatim ([Json] values, rendered
    into the Chrome event's ["args"] object). Building args allocates
    even when disabled — guard expensive ones with {!is_enabled}. *)

val begin_span : at:float -> (string * Json.t) list -> string -> unit
(** The hook [Metrics.time] calls to open a span: [at] is the
    [Unix.gettimeofday] reading its timer took for the same edge.
    Records without checking {!is_enabled} — the caller did. *)

val end_span : at:float -> string -> unit
(** Closes the most recent open span of the calling domain (Chrome
    "E" semantics; the name is informational). Unchecked, like
    {!begin_span}. *)

val instant : ?args:(string * Json.t) list -> string -> unit
(** A point-in-time marker (Chrome phase ["i"], thread scope). *)

val counter : string -> (string * float) list -> unit
(** [counter name series] samples one or more numeric series under one
    counter track (Chrome phase ["C"]), e.g.
    [counter "sat.progress" [("conflicts", 1.2e4); ("lbd_avg", 3.1)]]. *)

(** {1 Inspection} *)

type phase =
  | Begin
  | End
  | Instant
  | Counter

type event = {
  ts_us : float;  (** microseconds since the trace epoch (process start) *)
  tid : int;      (** OCaml domain id of the recording domain *)
  phase : phase;
  name : string;
  args : (string * Json.t) list;
}

val events : unit -> event list
(** Every buffered event, merged across domains, sorted by timestamp
    (ties keep per-domain order). Timestamps are per-domain monotone. *)

val dropped_events : unit -> int
(** Events overwritten by ring wrap-around since the last {!reset}. *)

(** {1 Export}

    Schema in [docs/OBSERVABILITY.md] ("Structured event tracing"). *)

val to_chrome_string : unit -> string
(** The Chrome trace-event document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one
    metadata event naming the process and each domain's thread, and
    begin/end pairs re-balanced per [tid]. *)

val write_chrome : out_channel -> unit
