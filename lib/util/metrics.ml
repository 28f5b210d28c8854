(* Pipeline-wide observability: monotonic counters, wall-clock stage
   timers with nesting, power-of-two histograms, and a global registry
   with reset/snapshot and human/JSON renderers. [time] is the one span
   primitive: it feeds the timer and, when tracing is on, [Tracing].

   Design constraints (see docs/OBSERVABILITY.md for the schema):

   - Zero cost when disabled: every recording entry point checks a
     single [enabled] flag ([time]: this one and the tracing flag)
     before touching the clock or allocating.
     Handle creation ([counter] / [histogram]) is allowed while
     disabled — it is a one-time registry insertion at module load.
   - Domain-safe recording: the batch enumerator fans per-tuple work
     out over OCaml 5 domains, and every worker records into the same
     global instruments. Counters are [Atomic.t] (no lost increments),
     timer/histogram mutations and registry traversals take a single
     process-wide mutex (records are rare next to counter bumps), and
     timer span nesting lives in domain-local storage so spans on one
     domain never parent spans on another.
   - No dependencies beyond [Unix], [Tracing] and the tiny [Json]
     module: snapshots round-trip in tests and validate in tooling
     without a JSON library in the build. *)

(* --- Metric kinds ------------------------------------------------------ *)

type counter = {
  c_name : string;
  c_value : int Atomic.t;
}

(* Power-of-two buckets: bucket [i] counts observations with
   value <= 2^i (bucket 0 also catches v <= 1, including non-positive
   observations). 63 buckets cover the whole non-negative int range. *)
let histogram_buckets = 63

type timer = {
  t_name : string;
  mutable t_count : int;
  mutable t_total : float;   (* inclusive wall seconds *)
  mutable t_self : float;    (* total minus time spent in nested spans *)
  mutable t_max : float;     (* longest single span *)
  t_buckets : int array;     (* span durations in µs, power-of-two buckets *)
}

type histogram = {
  h_name : string;
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of counter
  | Timer of timer
  | Histogram of histogram

(* --- Registry --------------------------------------------------------- *)

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* One process-wide lock guards the registry table and every
   timer/histogram mutation. Counters bypass it (they are atomics). *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

(* Insertion order, so snapshots are stable without sorting surprises
   (we still sort by name when rendering). *)
let register name metric =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some existing -> existing
  | None ->
    Hashtbl.add registry name metric;
    metric

let counter name =
  match register name (Counter { c_name = name; c_value = Atomic.make 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %s is not a counter" name)

let timer name =
  match
    register name
      (Timer
         {
           t_name = name;
           t_count = 0;
           t_total = 0.0;
           t_self = 0.0;
           t_max = 0.0;
           t_buckets = Array.make histogram_buckets 0;
         })
  with
  | Timer t -> t
  | _ -> invalid_arg (Printf.sprintf "Metrics.timer: %s is not a timer" name)

let histogram name =
  match
    register name
      (Histogram
         {
           h_name = name;
           buckets = Array.make histogram_buckets 0;
           h_count = 0;
           h_sum = 0.0;
           h_min = infinity;
           h_max = neg_infinity;
         })
  with
  | Histogram h -> h
  | _ ->
    invalid_arg (Printf.sprintf "Metrics.histogram: %s is not a histogram" name)

(* --- Recording -------------------------------------------------------- *)

let incr c = if Atomic.get enabled then Atomic.incr c.c_value
let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let bucket_of v =
  if v <= 1.0 then 0
  else begin
    let rec loop i bound =
      if i >= histogram_buckets - 1 || v <= bound then i
      else loop (i + 1) (bound *. 2.0)
    in
    loop 1 2.0
  end

let observe h v =
  if Atomic.get enabled then
    locked @@ fun () ->
    h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v

let observe_int h v = observe h (float_of_int v)

(* Timer spans nest through an explicit stack; each frame accumulates
   the inclusive time of its direct children so that the parent's
   self-time can be computed on [stop]. Exceptions unwind the stack via
   [Fun.protect], so a raising stage ([Encode.Too_large], solver budget
   exhaustion, …) still records its span. The stack is domain-local:
   spans running on a worker domain nest among themselves and never
   under a span of another domain. *)
type frame = { mutable f_children : float }

let span_stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record_span t span_stack frame elapsed =
  (* Children always pop themselves ([Fun.protect]), so the frame is on
     top unless [reset] dropped the stack mid-span. *)
  (match !span_stack with
  | top :: rest when top == frame -> span_stack := rest
  | _ -> ());
  let bucket = bucket_of (elapsed *. 1e6) in
  (locked @@ fun () ->
   t.t_count <- t.t_count + 1;
   t.t_total <- t.t_total +. elapsed;
   t.t_self <- t.t_self +. Float.max 0.0 (elapsed -. frame.f_children);
   if elapsed > t.t_max then t.t_max <- elapsed;
   t.t_buckets.(bucket) <- t.t_buckets.(bucket) + 1);
  match !span_stack with
  | parent :: _ -> parent.f_children <- parent.f_children +. elapsed
  | [] -> ()

(* The flags are sampled once at the start, so a span that began in a
   sink always ends in it. *)
let time ?args t f =
  let metrics = Atomic.get enabled and tracing = Tracing.is_enabled () in
  if not (metrics || tracing) then f ()
  else begin
    let start = Unix.gettimeofday () in
    if tracing then
      Tracing.begin_span ~at:start
        (match args with Some args -> args () | None -> [])
        t.t_name;
    let frame = { f_children = 0.0 } and span_stack = Domain.DLS.get span_stack_key in
    if metrics then span_stack := frame :: !span_stack;
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        if tracing then Tracing.end_span ~at:stop t.t_name;
        if metrics then record_span t span_stack frame (stop -. start))
      f
  end

(* --- Reset / snapshot -------------------------------------------------- *)

let reset () =
  Domain.DLS.get span_stack_key := [];
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | Counter c -> Atomic.set c.c_value 0
      | Timer t ->
        t.t_count <- 0;
        t.t_total <- 0.0;
        t.t_self <- 0.0;
        t.t_max <- 0.0;
        Array.fill t.t_buckets 0 histogram_buckets 0
      | Histogram h ->
        Array.fill h.buckets 0 histogram_buckets 0;
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- infinity;
        h.h_max <- neg_infinity)
    registry

type snapshot_entry =
  | Counter_value of int
  | Timer_value of {
      count : int;
      total : float;
      self : float;
      max : float;
      buckets : (float * int) list; (* span durations in µs, as below *)
    }
  | Histogram_value of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : (float * int) list; (* (inclusive upper bound, count), non-empty only *)
    }

(* Only metrics that recorded something appear in snapshots: a
   registered-but-untouched metric is noise, and dropping it keeps the
   "non-zero value per layer" contract meaningful. *)
let live metric =
  match metric with
  | Counter c -> Atomic.get c.c_value <> 0
  | Timer t -> t.t_count <> 0
  | Histogram h -> h.h_count <> 0

let sparse_buckets counts =
  let buckets = ref [] in
  for i = histogram_buckets - 1 downto 0 do
    if counts.(i) > 0 then
      buckets := (Float.pow 2.0 (float_of_int i), counts.(i)) :: !buckets
  done;
  !buckets

let snapshot () =
  locked @@ fun () ->
  Hashtbl.fold
    (fun name metric acc ->
      if not (live metric) then acc
      else
        let entry =
          match metric with
          | Counter c -> Counter_value (Atomic.get c.c_value)
          | Timer t ->
            Timer_value
              {
                count = t.t_count;
                total = t.t_total;
                self = t.t_self;
                max = t.t_max;
                buckets = sparse_buckets t.t_buckets;
              }
          | Histogram h ->
            Histogram_value
              {
                count = h.h_count;
                sum = h.h_sum;
                min = h.h_min;
                max = h.h_max;
                buckets = sparse_buckets h.buckets;
              }
        in
        (name, entry) :: acc)
    registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let get_counter name =
  match locked (fun () -> Hashtbl.find_opt registry name) with
  | Some (Counter c) -> Atomic.get c.c_value
  | _ -> 0

let get_timer_count name =
  match locked (fun () -> Hashtbl.find_opt registry name) with
  | Some (Timer t) -> t.t_count
  | _ -> 0

(* --- Renderers --------------------------------------------------------- *)

let schema_version = "whyprov.metrics/2"

(* Percentile over sparse power-of-two buckets: the inclusive upper
   bound of the first bucket whose cumulative count reaches rank
   [ceil (q * total)]. An upper bound, not an interpolation — honest
   about what bucketed data can support. *)
let percentile_of_buckets buckets q =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go cum = function
      | [] -> 0.0
      | [ (le, _) ] -> le
      | (le, c) :: rest -> if cum + c >= rank then le else go (cum + c) rest
    in
    go 0 buckets
  end

let snapshot_to_json () =
  let entries = snapshot () in
  let counters = ref [] and timers = ref [] and histograms = ref [] in
  List.iter
    (fun (name, entry) ->
      match entry with
      | Counter_value v -> counters := (name, Json.Num (float_of_int v)) :: !counters
      | Timer_value { count; total; self; max; buckets } ->
        let quantile_s q = Json.Num (percentile_of_buckets buckets q *. 1e-6) in
        timers :=
          ( name,
            Json.Obj
              [
                ("count", Json.Num (float_of_int count));
                ("total_s", Json.Num total);
                ("self_s", Json.Num self);
                ("max_s", Json.Num max);
                ("p50_s", quantile_s 0.50);
                ("p90_s", quantile_s 0.90);
                ("p99_s", quantile_s 0.99);
              ] )
          :: !timers
      | Histogram_value { count; sum; min; max; buckets } ->
        histograms :=
          ( name,
            Json.Obj
              [
                ("count", Json.Num (float_of_int count));
                ("sum", Json.Num sum);
                ("min", Json.Num min);
                ("max", Json.Num max);
                ("p50", Json.Num (percentile_of_buckets buckets 0.50));
                ("p90", Json.Num (percentile_of_buckets buckets 0.90));
                ("p99", Json.Num (percentile_of_buckets buckets 0.99));
                ( "buckets",
                  Json.List
                    (List.map
                       (fun (le, c) ->
                         Json.Obj
                           [ ("le", Json.Num le); ("count", Json.Num (float_of_int c)) ])
                       buckets) );
              ] )
          :: !histograms)
    entries;
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("counters", Json.Obj (List.rev !counters));
      ("timers", Json.Obj (List.rev !timers));
      ("histograms", Json.Obj (List.rev !histograms));
    ]

let to_json_string () = Json.to_string (snapshot_to_json ())

let pp_duration ppf seconds =
  if seconds < 0.001 then Format.fprintf ppf "%.0fµs" (seconds *. 1e6)
  else if seconds < 1.0 then Format.fprintf ppf "%.1fms" (seconds *. 1e3)
  else Format.fprintf ppf "%.2fs" seconds

let pp ppf () =
  let entries = snapshot () in
  if entries = [] then Format.fprintf ppf "(no metrics recorded)@."
  else
    List.iter
      (fun (name, entry) ->
        match entry with
        | Counter_value v -> Format.fprintf ppf "%-40s %12d@." name v
        | Timer_value { count; total; self; max; buckets } ->
          let dur = Format.asprintf "%a" pp_duration in
          Format.fprintf ppf "%-40s %12s  (self %s, max %s, p50<=%s p99<=%s, %d span%s)@."
            name (dur total) (dur self) (dur max)
            (dur (percentile_of_buckets buckets 0.50 *. 1e-6))
            (dur (percentile_of_buckets buckets 0.99 *. 1e-6))
            count
            (if count = 1 then "" else "s")
        | Histogram_value { count; sum; min; max; buckets } ->
          Format.fprintf ppf "%-40s n=%d sum=%g min=%g max=%g p50<=%g p90<=%g p99<=%g@."
            name count sum min max
            (percentile_of_buckets buckets 0.50)
            (percentile_of_buckets buckets 0.90)
            (percentile_of_buckets buckets 0.99);
          List.iter
            (fun (le, c) -> Format.fprintf ppf "%40s   <= %-12g %d@." "" le c)
            buckets)
      entries

let to_string () = Format.asprintf "%a" pp ()
