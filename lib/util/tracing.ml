(* Per-domain ring buffers of trace events, flushed to Chrome
   trace-event JSON. See tracing.mli for the contract and
   docs/OBSERVABILITY.md for the schema. *)

type phase =
  | Begin
  | End
  | Instant
  | Counter

type event = {
  ts_us : float;
  tid : int;
  phase : phase;
  name : string;
  args : (string * Json.t) list;
}

(* A buffer is written only by the domain that owns it; the registry
   below lets the coordinating domain read all of them after workers
   have been joined. [ring] cells start as [dummy_event] and are
   overwritten in place; [head] is the logical index of the oldest
   live event, [len] the live count. *)
type buffer = {
  b_tid : int;
  ring : event array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
  mutable last_ts : float;
}

let dummy_event = { ts_us = 0.; tid = 0; phase = Instant; name = ""; args = [] }

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let default_capacity = 1 lsl 18
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 16 n)

(* Trace epoch: timestamps are microseconds since module init, which
   keeps them small enough that float arithmetic is exact to well
   under a microsecond. *)
let epoch = Unix.gettimeofday ()

let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          ring = Array.make (Atomic.get capacity) dummy_event;
          head = 0;
          len = 0;
          dropped = 0;
          last_ts = 0.;
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let push b ev =
  let cap = Array.length b.ring in
  if b.len < cap then begin
    b.ring.((b.head + b.len) mod cap) <- ev;
    b.len <- b.len + 1
  end
  else begin
    (* Wrap: overwrite the oldest event so the tail of a long run is
       retained. The exporters re-balance B/E pairs afterwards. *)
    b.ring.(b.head) <- ev;
    b.head <- (b.head + 1) mod cap;
    b.dropped <- b.dropped + 1
  end

(* [at] is a [Unix.gettimeofday] reading: span edges pass the one
   their timer read, so the trace and the timer see the same clock. *)
let record ?(at = Unix.gettimeofday ()) phase name args =
  let b = Domain.DLS.get buffer_key in
  (* Clamp to the buffer's last timestamp: per-domain streams are
     non-decreasing even if the wall clock steps backwards. *)
  let ts = (at -. epoch) *. 1e6 in
  let ts = if ts < b.last_ts then b.last_ts else ts in
  b.last_ts <- ts;
  push b { ts_us = ts; tid = b.b_tid; phase; name; args }

(* Hooks for [Metrics.time], which has already checked [is_enabled]:
   they record unconditionally, so a span that began always ends. *)
let begin_span ~at args name = record ~at Begin name args
let end_span ~at name = record ~at End name []

let instant ?(args = []) name =
  if Atomic.get enabled then record Instant name args

let counter name series =
  if Atomic.get enabled then
    record Counter name (List.map (fun (k, v) -> (k, Json.Num v)) series)

let buffers () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  bs

let reset () =
  List.iter
    (fun b ->
      b.head <- 0;
      b.len <- 0;
      b.dropped <- 0;
      b.last_ts <- 0.)
    (buffers ())

let dropped_events () = List.fold_left (fun acc b -> acc + b.dropped) 0 (buffers ())

let buffer_events b =
  let cap = Array.length b.ring in
  List.init b.len (fun i -> b.ring.((b.head + i) mod cap))

(* Per-tid B/E re-balancing: ring wrap-around can orphan an E (its B
   was overwritten) and disabling mid-span or a buffer-full tail can
   leave a B unclosed. Drop the former, close the latter at the
   domain's last timestamp, so every exported stream has matched,
   properly nested pairs. *)
let balance_tid evs =
  let out = ref [] in
  let open_spans = ref [] in
  let last = ref 0. in
  List.iter
    (fun ev ->
      last := ev.ts_us;
      match ev.phase with
      | Begin ->
          open_spans := ev :: !open_spans;
          out := ev :: !out
      | End -> (
          match !open_spans with
          | [] -> () (* orphaned end: its begin was overwritten *)
          | _ :: rest ->
              open_spans := rest;
              out := ev :: !out)
      | Instant | Counter -> out := ev :: !out)
    evs;
  let closers =
    List.map
      (fun b -> { b with phase = End; ts_us = !last; args = [] })
      !open_spans
  in
  List.rev_append !out closers

(* Merge across domains by timestamp; a stable sort keeps each
   domain's (monotone) stream in order under ties. *)
let merge per_tid =
  List.stable_sort
    (fun a b ->
      match compare a.ts_us b.ts_us with 0 -> compare a.tid b.tid | c -> c)
    (List.concat per_tid)

let balanced_events () =
  merge
    (List.filter_map
       (fun b ->
         match buffer_events b with [] -> None | evs -> Some (balance_tid evs))
       (buffers ()))

let events () = merge (List.map buffer_events (buffers ()))

let phase_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"

let event_fields ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("ph", Json.Str (phase_string ev.phase));
      ("ts", Json.Num ev.ts_us);
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int ev.tid));
    ]
  in
  let base =
    (* Chrome instant events carry a scope; "t" = thread. *)
    if ev.phase = Instant then base @ [ ("s", Json.Str "t") ] else base
  in
  match ev.args with [] -> base | args -> base @ [ ("args", Json.Obj args) ]

let metadata_event name tid args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj args);
    ]

let to_chrome_json () =
  let evs = balanced_events () in
  let tids =
    List.sort_uniq compare (List.map (fun b -> b.b_tid) (buffers ()))
  in
  let meta =
    metadata_event "process_name" 0 [ ("name", Json.Str "whyprov") ]
    :: List.map
         (fun tid ->
           let label = if tid = 0 then "domain 0 (main)" else Printf.sprintf "domain %d" tid in
           metadata_event "thread_name" tid [ ("name", Json.Str label) ])
         tids
  in
  let body = List.map (fun ev -> Json.Obj (event_fields ev)) evs in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ body));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_chrome_string () = Json.to_string (to_chrome_json ())

let write_chrome oc =
  output_string oc (to_chrome_string ());
  output_char oc '\n'
