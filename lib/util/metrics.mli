(** Pipeline-wide observability: counters, nested wall-clock stage
    timers, power-of-two histograms, and a global registry with
    reset/snapshot and human/JSON renderers.

    {!time} is the one way to mark a region of the pipeline: the same
    span feeds its timer (count, total, self, max, duration quantiles)
    and, when {!Tracing} is recording, a begin/end event pair under the
    timer's name — so [--stats] and [--trace] name the same regions.

    Every pipeline layer registers its instruments at module load and
    records into them unconditionally; recording is a no-op (a single
    flag check, no clock reads, no allocation) until {!set_enabled} is
    called with [true]. The metric names, units and JSON shape are
    specified in [docs/OBSERVABILITY.md]; that document is the contract
    for the [--stats=json] output of the [whyprov] binary and for the
    stats rows the bench harness emits.

    Recording is domain-safe: the batch enumerator ({!Provenance.Batch})
    runs per-tuple solver work on OCaml 5 domains, all of which record
    into the same registry. Counter updates are atomic (concurrent
    increments are never lost), timer/histogram updates are serialized
    by a process-wide mutex, and timer span nesting is tracked per
    domain, so a worker's spans never nest under another domain's.
    {!set_enabled}, {!reset} and snapshotting are meant to be driven
    from a single coordinating domain while no other domain is
    mid-span. *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Recording is disabled by default. A {!time} span samples the flag
    when it starts, so one that started enabled is recorded in full. *)

val is_enabled : unit -> bool
(** Guard for instrumentation whose mere preparation would allocate
    (e.g. building a per-predicate metric name). *)

(** {1 Instruments}

    Creation is idempotent: the same name always returns the same
    instrument. A name denotes one kind forever; re-registering it as a
    different kind raises [Invalid_argument]. *)

type counter
type timer
type histogram

val counter : string -> counter
val timer : string -> timer
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val time : ?args:(unit -> (string * Json.t) list) -> timer -> (unit -> 'a) -> 'a
(** [time t f] runs [f] inside a span of [t], reading the clock once
    per edge. Metrics on: the inclusive wall time accrues to [t]'s total
    and µs duration histogram, and is subtracted from the self-time of
    the enclosing span of the same domain, if any. Tracing on: a
    begin/end pair named after [t], with [args ()] (evaluated only then)
    on the begin event. Exception-safe: a raising [f] still records its
    span. With both off this is exactly [f ()]. *)

val observe : histogram -> float -> unit
(** Buckets are powers of two: observation [v] lands in the first
    bucket whose inclusive upper bound [2^i] satisfies [v <= 2^i]
    (non-positive values land in bucket 0). *)

val observe_int : histogram -> int -> unit

(** {1 Registry} *)

val reset : unit -> unit
(** Zeroes every registered instrument (registrations persist). *)

type snapshot_entry =
  | Counter_value of int
  | Timer_value of {
      count : int;
      total : float;
      self : float;
      max : float;
      buckets : (float * int) list;
          (** span durations in µs, bucketed as in {!Histogram_value} *)
    }
  | Histogram_value of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : (float * int) list;
    }

val snapshot : unit -> (string * snapshot_entry) list
(** Every instrument that recorded at least one event since the last
    {!reset}, sorted by name. Untouched instruments are omitted. *)

val get_counter : string -> int
(** Current value by name; [0] if absent or not a counter. *)

val get_timer_count : string -> int

(** {1 Renderers} *)

val schema_version : string
(** The value of the ["schema"] field of JSON snapshots. *)

val percentile_of_buckets : (float * int) list -> float -> float
(** [percentile_of_buckets buckets q] with [buckets] as in
    {!Histogram_value} (ascending [(inclusive upper bound, count)])
    and [q] in [\[0, 1\]]: the upper bound of the first bucket whose
    cumulative count reaches rank [ceil (q * total)] — an upper bound
    on the [q]-quantile, not an interpolation. [0.] on empty data.
    JSON snapshots embed [p50]/[p90]/[p99] computed this way on every
    histogram, and [p50_s]/[p90_s]/[p99_s] (µs buckets, in seconds) on
    every timer. *)

val snapshot_to_json : unit -> Json.t
(** The snapshot as [{schema; counters; timers; histograms}] — see
    [docs/OBSERVABILITY.md] for the exact shape. *)

val to_json_string : unit -> string

val pp : Format.formatter -> unit -> unit
(** Human-readable listing, one instrument per line. *)

val to_string : unit -> string
