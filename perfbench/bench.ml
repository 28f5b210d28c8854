(* The repository benchmark: why-provenance workloads driven through the
   public pipeline (Eval.seminaive -> Closure -> Encode -> Enumerate, or
   Batch.run), with checked answers, end-to-end metrics from untraced
   runs and a per-layer split from a traced run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --record NAME    re-record and certify perfbench/pools/NAME.tsv

   README.md describes the workloads, the metrics and the layer map. *)

open Datalog
module P = Provenance
module Rng = Util.Rng
module Metrics = Util.Metrics

let now = Unix.gettimeofday
let conflict_budget = 400_000
let max_fill = 400_000
let jobs = 2

(* --- Workloads ---------------------------------------------------------- *)

type query = {
  qname : string;
  program : Program.t;
  pred : Symbol.t;
  per_pass : int;  (* tuples drawn per pass *)
  pool_size : int;  (* candidate tuples recorded in the pool file *)
}

type kind = Explain | Batch

type workload = {
  name : string;
  kind : kind;
  cap : int;  (* members per tuple *)
  database : unit -> Database.t;
  queries : query list;
}

let query ~per_pass ~pool_size (s : Workloads.Scenario.t) =
  { qname = s.name; program = s.program; pred = s.answer_pred; per_pass; pool_size }

let andersen_wide () =
  let s = Workloads.Andersen.scenario ~scale:0.5 () in
  {
    name = "andersen-wide";
    kind = Explain;
    cap = 50;
    database = (fun () -> Workloads.Andersen.statements ~seed:405 ~vars:15_000 ());
    queries = [ query ~per_pass:60 ~pool_size:1200 s ];
  }

let doctors_mixed () =
  let scenarios = Workloads.Doctors.scenarios () in
  let s name = List.find (fun (s : Workloads.Scenario.t) -> s.name = name) scenarios in
  {
    name = "doctors-mixed";
    kind = Explain;
    cap = 500;
    database = (fun () -> Workloads.Doctors.database ~seed:201 ());
    queries =
      [
        query ~per_pass:10 ~pool_size:400 (s "Doctors-1");
        query ~per_pass:10 ~pool_size:400 (s "Doctors-5");
      ];
  }

let tc_sparse_batch () =
  let s = Workloads.Transclosure.scenario () in
  {
    name = "tc-sparse-batch";
    kind = Batch;
    cap = 500;
    database = (fun () -> Workloads.Transclosure.bitcoin_like ~facts:200_000 ~seed:101 ());
    queries = [ query ~per_pass:300 ~pool_size:6000 s ];
  }

let workloads =
  [ ("andersen-wide", andersen_wide); ("doctors-mixed", doctors_mixed);
    ("tc-sparse-batch", tc_sparse_batch) ]

(* --- Statistics --------------------------------------------------------- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.
let mean xs = sum xs /. float_of_int (List.length xs)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* --- Member families ---------------------------------------------------- *)

type status = Exhausted | Capped | Gave_up | Too_large | Not_derivable

let status_name = function
  | Exhausted -> "exhausted"
  | Capped -> "capped"
  | Gave_up -> "gave_up"
  | Too_large -> "too_large"
  | Not_derivable -> "not_derivable"

let failed = function
  | Exhausted | Capped -> false
  | Gave_up | Too_large | Not_derivable -> true

(* The digest of a member family does not depend on production order or
   on symbol interning: members are compared as sorted fact strings. *)
let family_digest members =
  let member m =
    Fact.Set.elements m |> List.map Fact.to_string |> List.sort compare
    |> String.concat ","
  in
  List.map member members |> List.sort compare |> String.concat "\n"
  |> Digest.string |> Digest.to_hex

(* "pred(a,b)" back to a fact; pool tuples are written by Fact.to_string. *)
let fact_of_string s =
  match String.index_opt s '(' with
  | None -> Fact.of_strings s []
  | Some i ->
    let args = String.sub s (i + 1) (String.length s - i - 2) in
    Fact.of_strings (String.sub s 0 i) (String.split_on_char ',' args)

(* --- Pools ---------------------------------------------------------------

   A pool is the fixed set of answer tuples a workload samples from, with
   the reference outcome of each: status, member count and family digest
   (exhausted families only), plus the recorded cost in ms that the
   sampler stratifies on. *)

type entry = {
  e_query : string;
  cost_ms : float;
  e_status : string;
  e_count : int;
  digest : string;
  tuple : string;
}

let pool_file w = Filename.concat "perfbench/pools" (w.name ^ ".tsv")

let read_pool w =
  let ic = open_in (pool_file w) in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when line = "" || line.[0] = '#' -> loop acc
    | line -> (
      match String.split_on_char '\t' line with
      | [ q; cost; st; count; digest; tuple ] ->
        loop
          ({ e_query = q; cost_ms = float_of_string cost; e_status = st;
             e_count = int_of_string count; digest; tuple }
          :: acc)
      | _ -> failwith ("malformed pool line: " ^ line))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> loop [])

(* --- Traced-run spans ----------------------------------------------------

   Only the traced run records spans: one per public call, with the
   enclosing pass as parent and the tuple's id. They stay in memory until
   the run ends. *)

type span = { id : int; name : string; tid : int; parent : int; start : float; stop : float }

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 0

let span ?(tid = -1) ?(parent = -1) name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let start = now () in
    let record () = spans := { id; name; tid; parent; start; stop = now () } :: !spans in
    Fun.protect ~finally:record f
  end

let span_total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc) 0. !spans

let write_spans path =
  (try Unix.mkdir (Filename.dirname path) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"tid\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.tid s.parent s.start s.stop)
    (List.rev !spans);
  close_out oc

(* --- One tuple request -------------------------------------------------- *)

type tuple_run = {
  t_query : query;
  fact : Fact.t;
  db_facts : Fact.t list option;  (* the closure's database facts; Batch: built by the check *)
  members : Fact.Set.t list;
  status : status;
  first_member_s : float;  (* Explain: closure start to first member; Batch: the tuple's task_s *)
  delays_ms : float list;  (* Explain: per member; Batch: task_s per member *)
}

let explain_tuple ~cap ~parent ~tid q cache db fact =
  let span name f = span ~tid ~parent name f in
  let t0 = now () in
  let closure = span "closure" (fun () -> P.Closure.build_cached cache db fact) in
  let result status members first delays =
    { t_query = q; fact; db_facts = Some (P.Closure.db_facts closure); members = List.rev members;
      status; first_member_s = first; delays_ms = delays }
  in
  if not (P.Closure.derivable closure) then result Not_derivable [] nan []
  else
    let make () = try Some (P.Encode.make ~max_fill closure) with P.Encode.Too_large _ -> None in
    match span "encode" make with
    | None -> result Too_large [] nan []
    | Some encoding ->
      let e = span "enumerate" (fun () -> P.Enumerate.of_parts closure encoding) in
      let rec loop n members first delays =
        if n = cap then result Capped members first delays
        else begin
          let t = now () in
          match span "enumerate" (fun () -> P.Enumerate.next_limited ~conflict_budget e) with
          | `Exhausted -> result Exhausted members first delays
          | `Gave_up -> result Gave_up members first delays
          | `Member m ->
            let t' = now () in
            let first = if n = 0 then t' -. t0 else first in
            loop (n + 1) (m :: members) first ((1000. *. (t' -. t)) :: delays)
        end
      in
      loop 0 [] nan []

(* --- Passes ---------------------------------------------------------------

   A pass is one client session: materialize the model, then request the
   pass's tuples one after another (closed loop, one client). Batch passes
   hand all their tuples to one Batch.run call. *)

type pass = {
  wall_s : float;
  model_s : float;
  members : int;
  runs : tuple_run list;
  batch : P.Batch.outcome option;
}

let count_members runs = List.fold_left (fun n (r : tuple_run) -> n + List.length r.members) 0 runs

let explain_pass w db picks ~pass_id ~tid =
  let t0 = now () in
  let model_s = ref 0. in
  let runs =
    span ~parent:(-1) "pass" @@ fun () ->
    List.concat_map
      (fun (q, facts) ->
        let tm = now () in
        let model = span ~parent:pass_id "eval" (fun () -> Eval.seminaive q.program db) in
        model_s := !model_s +. (now () -. tm);
        let cache = P.Closure.instance_cache q.program ~model in
        List.map
          (fun fact ->
            incr tid;
            explain_tuple ~cap:w.cap ~parent:pass_id ~tid:!tid q cache db fact)
          facts)
      picks
  in
  { wall_s = now () -. t0; model_s = !model_s; members = count_members runs; runs; batch = None }

let batch_pass w db picks ~pass_id =
  let t0 = now () in
  let q, facts = List.hd picks in
  let o =
    span ~parent:(-1) "pass" @@ fun () ->
    span ~parent:pass_id "batch" @@ fun () ->
    P.Batch.run ~jobs ~limit:w.cap ~conflict_budget ~max_fill q.program db (P.Batch.Facts facts)
  in
  let wall_s = now () -. t0 in
  let run (r : P.Batch.result) =
    let status =
      match r.status with
      | P.Batch.Complete -> Exhausted
      | Limit_reached -> Capped
      | Budget_exhausted -> Gave_up
      | Too_large -> Too_large
      | Not_derivable -> Not_derivable
    in
    let n = List.length r.members in
    { t_query = q; fact = r.fact; db_facts = None; members = r.members; status;
      first_member_s = r.task_s;
      delays_ms = (if n = 0 then [] else [ 1000. *. r.task_s /. float_of_int n ]) }
  in
  let runs = List.map run o.results in
  { wall_s; model_s = o.materialize_s; members = count_members runs; runs; batch = Some o }

(* --- Sampling --------------------------------------------------------------

   Each query's pool is sorted by recorded cost and cut into
   [cycle * per_pass] strata of equal size, taken in groups of [cycle]
   neighbours. Each group gives one stratum to each of [cycle] passes,
   rotating which one from group to group, so every pass has the same
   cost profile and every [cycle] passes together cover all strata: the
   sample varies with the seed, its cost profile does not. *)

let cycle = 5

let strata q pool =
  let a =
    List.filter (fun e -> e.e_query = q.qname) pool
    |> List.sort (fun a b -> compare (a.cost_ms, a.tuple) (b.cost_ms, b.tuple))
    |> Array.of_list
  in
  let n = Array.length a and k = cycle * q.per_pass in
  if n < k then failwith (Printf.sprintf "pool for %s has %d tuples, needs %d" q.qname n k);
  Array.init k (fun i -> Array.sub a (i * n / k) (((i + 1) * n / k) - (i * n / k)))

let draw rng strata ~pass =
  let picks =
    Array.of_list
      (List.filteri (fun i _ -> (i + (i / cycle)) mod cycle = pass mod cycle) (Array.to_list strata)
      |> List.map (fun s -> (Rng.choose rng s).tuple))
  in
  Rng.shuffle rng picks;
  Array.to_list picks

(* --- Checks ----------------------------------------------------------------

   Outside the timed region. Every member must be a subset of the
   closure's database facts, members must be pairwise distinct, and each
   must derive the tuple on its own. Exhausted families must match the
   recorded digest; capped families must have exactly [cap] members. *)

type tally = {
  mutable errors : string list;
  mutable digests : int;
  mutable uncertified : int;
  mutable capped : int;
}

let checker w pool =
  let expected = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace expected (e.e_query, e.tuple) e) pool;
  let caches = Hashtbl.create 2 in
  let db_facts_of r =
    match r.db_facts with
    | Some s -> Fact.Set.of_list s
    | None ->
      let q = r.t_query in
      let cache, db =
        match Hashtbl.find_opt caches q.qname with
        | Some c -> c
        | None ->
          let db = w.database () in
          let c = (P.Closure.instance_cache q.program ~model:(Eval.seminaive q.program db), db) in
          Hashtbl.replace caches q.qname c;
          c
      in
      Fact.Set.of_list (P.Closure.db_facts (P.Closure.build_cached cache db r.fact))
  in
  let verified = Hashtbl.create 1024 in
  let tally = { errors = []; digests = 0; uncertified = 0; capped = 0 } in
  let error r fmt =
    Printf.ksprintf
      (fun s -> tally.errors <- Printf.sprintf "%s %s: %s" r.t_query.qname (Fact.to_string r.fact) s :: tally.errors)
      fmt
  in
  let check r =
    let tuple = Fact.to_string r.fact in
    let digest = family_digest r.members in
    if not (Hashtbl.mem verified (r.t_query.qname, tuple, digest)) then begin
      let s = db_facts_of r in
      let rec distinct = function
        | a :: (b :: _ as rest) -> (not (Fact.Set.equal a b)) && distinct rest
        | _ -> true
      in
      if not (distinct (List.sort Fact.Set.compare r.members)) then error r "repeated member";
      List.iter
        (fun m ->
          if not (Fact.Set.subset m s) then error r "member outside the closure's database facts"
          else if not (Eval.holds r.t_query.program (Database.of_set m) r.fact) then
            error r "member does not derive the tuple")
        r.members;
      Hashtbl.replace verified (r.t_query.qname, tuple, digest) ()
    end;
    match (Hashtbl.find_opt expected (r.t_query.qname, tuple), r.status) with
    | None, _ -> error r "tuple is not in the pool"
    | Some e, Exhausted when e.e_status = "uncertified" -> tally.uncertified <- tally.uncertified + 1
    | Some e, Exhausted ->
      tally.digests <- tally.digests + 1;
      if e.e_status <> "exhausted" || e.e_count <> List.length r.members || e.digest <> digest then
        error r "family (%d members, %s) differs from the recorded one (%s, %d members, %s)"
          (List.length r.members) digest e.e_status e.e_count e.digest
    | Some e, Capped ->
      tally.capped <- tally.capped + 1;
      if (e.e_status <> "capped" && e.e_status <> "uncertified") || List.length r.members <> w.cap then
        error r "capped with %d members, recorded %s" (List.length r.members) e.e_status
    | Some _, (Gave_up | Too_large | Not_derivable) -> ()
  in
  (tally, List.iter check)

(* --- Output ------------------------------------------------------------- *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
           unit)
       metrics)

(* The per-layer split of a traced run. Spans time the public calls; the
   Metrics timers split Encode.make into encode and preprocess, and
   Enumerate.next_limited into solve and enumerate. Inside Batch.run the
   benchmark cannot place spans, so there the layer busy times are the
   Metrics timer totals, summed over the fan-out's worker domains. *)
let layer_metrics w passes timed =
  let snap = Metrics.snapshot () in
  let timer name =
    match List.assoc_opt name snap with Some (Metrics.Timer_value t) -> t.total | _ -> 0.
  in
  let count name = float_of_int (Metrics.get_counter name) in
  let outcomes = List.filter_map (fun p -> p.batch) passes in
  let bsum f = sum (List.map f outcomes) in
  let runs = List.concat_map (fun p -> p.runs) passes in
  let nstatus st = float_of_int (List.length (List.filter (fun r -> r.status = st) runs)) in
  let preprocess = timer "preprocess.simplify" and solve = timer "sat.solve" in
  let eval, closure, encode, enumerate =
    match w.kind with
    | Explain ->
      (span_total "eval", span_total "closure", span_total "encode" -. preprocess,
       span_total "enumerate" -. solve)
    | Batch ->
      (bsum (fun o -> o.materialize_s), bsum (fun o -> o.closures_s),
       timer "encode.build" -. preprocess, timer "enum.next" -. solve)
  in
  let fanout = bsum (fun o -> o.fanout_s) in
  let task = bsum (fun o -> sum (List.map (fun (r : P.Batch.result) -> r.task_s) o.results)) in
  let batch_self = span_total "batch" -. eval -. closure -. fanout in
  let accounted =
    match w.kind with
    | Explain -> eval +. closure +. encode +. preprocess +. solve +. enumerate
    | Batch -> eval +. closure +. fanout +. batch_self
  in
  let hits = count "closure.cache_hits" and misses = count "closure.cache_misses" in
  let cin = count "preprocess.clauses_in" and cout = count "preprocess.clauses_out" in
  let ratio a b = if b > 0. then a /. b else 0. in
  let counter_sum prefix =
    List.fold_left
      (fun acc (name, e) ->
        match e with
        | Metrics.Counter_value v when String.starts_with ~prefix name -> acc +. float_of_int v
        | _ -> acc)
      0. snap
  in
  [
    ("eval.busy_s", eval, "s");
    ("eval.model_facts", ratio (count "eval.model_facts") (float_of_int (List.length passes)), "count");
    ("eval.derived_per_s", ratio (count "eval.facts_derived") eval, "1/s");
    ("closure.busy_s", closure, "s");
    ("closure.nodes", count "closure.nodes", "count");
    ("closure.hyperedges", count "closure.rule_instances", "count");
    ("closure.cache_hit_ratio", ratio hits (hits +. misses), "ratio");
    ("encode.busy_s", encode, "s");
    ("encode.vars", counter_sum "encode.vars.", "count");
    ("encode.clauses", counter_sum "encode.clauses.", "count");
    ("encode.too_large", nstatus Too_large, "count");
    ("preprocess.busy_s", preprocess, "s");
    ("preprocess.clauses_in", cin, "count");
    ("preprocess.clauses_out", cout, "count");
    ("preprocess.removed_ratio", ratio (cin -. cout) cin, "ratio");
    ("preprocess.removed_per_s", ratio (cin -. cout) preprocess, "1/s");
    ("solve.busy_s", solve, "s");
    ("solve.calls", count "sat.solve_calls", "count");
    ("solve.conflicts", count "sat.conflicts", "count");
    ("solve.gave_up", nstatus Gave_up, "count");
    ("enumerate.busy_s", enumerate, "s");
    ("enumerate.members", count "enum.members", "count");
    ("enumerate.exhausted", nstatus Exhausted, "count");
    ("enumerate.capped", nstatus Capped, "count");
    ("batch.closures_s", bsum (fun o -> o.closures_s), "s");
    ("batch.fanout_s", fanout, "s");
    ("batch.task_s", task, "s");
    ("batch.worker_idle_ratio", (if fanout > 0. then 1. -. (task /. (float_of_int jobs *. fanout)) else 0.), "ratio");
    ("trace.wall_s", timed /. float_of_int (List.length passes), "s");
    ("trace.timed_s", timed, "s");
    ("trace.residual_s", timed -. accounted, "s");
  ]

(* --- Benchmark run ------------------------------------------------------ *)

(* Set-up is repeated at least [setups] times and for at least a second. *)
let setups = 5

let run_benchmark w ~seed ~seconds ~trace ~corrupt =
  (* Set-up: database generation and tuple picking; the last set-up's
     products are used. *)
  let setup () =
    Gc.full_major ();
    let t = now () in
    let db = w.database () in
    let pool = read_pool w in
    let strata = List.map (fun q -> (q, strata q pool)) w.queries in
    (now () -. t, (db, pool, strata))
  in
  let rec repeat times =
    let t, products = setup () in
    let times = t :: times in
    if List.length times >= setups && sum times >= 1. then (times, products) else repeat times
  in
  let times, (db, pool, strata) = repeat [] in
  let rng = Rng.create seed in
  let tally, check = checker w pool in
  (* Checks run outside the timed region, with the traced run's Metrics
     paused. Explain passes are checked as they end, so that member lists
     do not pile up over the run; Batch results are small and are checked
     at the end, where the checker materializes its own model. *)
  let check runs =
    Metrics.set_enabled false;
    check runs;
    Metrics.set_enabled trace
  in
  let corrupt runs =
    (* Self-test: slip a fact that is no database fact into one member. *)
    let rec go = function
      | (r : tuple_run) :: rest when r.members <> [] ->
        { r with members = Fact.Set.add r.fact (List.hd r.members) :: List.tl r.members } :: rest
      | r :: rest -> r :: go rest
      | [] -> []
    in
    if corrupt then go runs else runs
  in
  tracing := trace;
  if trace then begin Metrics.reset (); Metrics.set_enabled true end;
  let tid = ref 0 in
  let rec passes acc elapsed =
    if elapsed >= seconds && acc <> [] then List.rev acc
    else begin
      let pass = List.length acc in
      let picks = List.map (fun (q, s) -> (q, List.map fact_of_string (draw rng s ~pass))) strata in
      (* Every pass starts from the same heap state. *)
      Gc.full_major ();
      let pass_id = !next_span in
      let p =
        match w.kind with
        | Explain -> explain_pass w db picks ~pass_id ~tid
        | Batch -> batch_pass w db picks ~pass_id
      in
      let p = if pass = 0 then { p with runs = corrupt p.runs } else p in
      let p =
        match w.kind with
        | Batch -> p
        | Explain ->
          check p.runs;
          { p with runs = List.map (fun r -> { r with members = []; db_facts = None }) p.runs }
      in
      passes (p :: acc) (elapsed +. p.wall_s)
    end
  in
  let passes = passes [] 0. in
  let peak_rss_mb = peak_rss_mb () in
  let timed = sum (List.map (fun p -> p.wall_s) passes) in
  let layers = if trace then layer_metrics w passes timed else [] in
  Metrics.set_enabled false;
  tracing := false;
  let runs = List.concat_map (fun p -> p.runs) passes in
  if w.kind = Batch then check runs;
  let errors = List.rev tally.errors in
  let members = List.fold_left (fun n p -> n + p.members) 0 passes in
  let attempted = List.length runs in
  let nfailed = List.length (List.filter (fun r -> failed r.status) runs) in
  let firsts = List.filter Float.is_finite (List.map (fun r -> r.first_member_s) runs) in
  let delays = List.concat_map (fun r -> r.delays_ms) runs in
  let end_to_end =
    [
      ("setup_s", median times, "s");
      ("wall_s", mean (List.map (fun p -> p.wall_s) passes), "s");
      ("members_per_s", float_of_int members /. timed, "1/s");
      ("model_s", mean (List.map (fun p -> p.model_s) passes), "s");
      ("first_member_s.p50", quantile firsts 0.5, "s");
      ("first_member_s.p90", quantile firsts 0.9, "s");
      ("member_delay_ms.p50", quantile delays 0.5, "ms");
      ("member_delay_ms.p99", quantile delays 0.99, "ms");
      ("fail_ratio", float_of_int nfailed /. float_of_int attempted, "ratio");
      ("peak_rss_mb", peak_rss_mb, "MB");
    ]
  in
  if trace then write_spans (Printf.sprintf "perfbench/out/%s-seed%d.spans.jsonl" w.name seed);
  Printf.printf
    "workload %s  seed %d  cores %d  passes %d  tuples %d  members %d  \
     first_member samples %d  delay samples %d\n"
    w.name seed (Domain.recommended_domain_count ()) (List.length passes) attempted members
    (List.length firsts) (List.length delays);
  Printf.printf "pass wall_s: %s\n" (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall_s) passes));
  List.iter (fun (n, v, u) -> Printf.printf "  %-26s %14.6f %s\n" n v u) (end_to_end @ layers);
  Printf.printf
    "check: %s (%d exhausted families matched their digests, %d uncertified families not \
     compared, %d capped counts, %d failed tuples)\n"
    (if errors = [] then "ok" else "FAILED") tally.digests tally.uncertified tally.capped nfailed;
  List.iteri (fun i e -> if i < 20 then Printf.printf "  %s\n" e) errors;
  let reported =
    if trace then layers else List.filter (fun (n, _, _) -> n <> "fail_ratio") end_to_end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (errors = []) attempted nfailed (json_metrics reported);
  if errors <> [] then exit 1

(* --- Recording and certifying pools --------------------------------------

   Pools are systematic samples of the answers sorted by their string
   form, so they do not depend on interning order. Recording is also the
   certification pass: each exhausted tuple is enumerated again with DRAT
   proof logging and its terminal UNSAT is checked. A family whose
   exhaustion is not certified is recorded as "uncertified", and the
   checks compare nothing against its digest. *)

let certify cache db fact digest =
  let closure = P.Closure.build_cached cache db fact in
  let encoding = P.Encode.make ~max_fill ~capture:true ~proof_logging:true closure in
  let e = P.Enumerate.of_parts closure encoding in
  let rec drain acc =
    match P.Enumerate.next_limited ~conflict_budget e with
    | `Member m -> drain (m :: acc)
    | `Exhausted -> Ok acc
    | `Gave_up -> Error "gave up with proof logging on"
  in
  match drain [] with
  | Error _ as err -> err
  | Ok members when family_digest members <> digest -> Error "another family with proof logging on"
  | Ok members ->
    let original =
      Option.get (P.Encode.captured_clauses encoding) @ List.map (P.Encode.blocking_clause encoding) members
    in
    let solver = P.Encode.solver encoding in
    Sat.Drat.check ~nvars:(Sat.Solver.num_vars solver) ~original ~proof:(Sat.Solver.proof solver)

let record w =
  let db = w.database () in
  let recorded = ref [] in
  let oc = open_out (pool_file w) in
  Printf.fprintf oc "# query\tcost_ms\tstatus\tmembers\tdigest\ttuple  (written by bench.exe --record %s)\n" w.name;
  List.iter
    (fun q ->
      let model = Eval.seminaive q.program db in
      let answers =
        Eval.answers q.program q.pred model |> List.map Fact.to_string |> List.sort compare |> Array.of_list
      in
      let n = Array.length answers in
      let cache = P.Closure.instance_cache q.program ~model in
      let kept = ref 0 and dropped = ref 0 and certified = ref 0 and uncertified = ref 0 in
      for i = 0 to min q.pool_size n - 1 do
        let tuple = answers.(((2 * i) + 1) * n / (2 * min q.pool_size n)) in
        let fact = fact_of_string tuple in
        assert (Fact.to_string fact = tuple);
        let t = now () in
        let r = explain_tuple ~cap:w.cap ~parent:(-1) ~tid:i q cache db fact in
        let cost = 1000. *. (now () -. t) in
        let digest = family_digest r.members in
        let status =
          match r.status with
          | Exhausted -> (
            match certify cache db fact digest with
            | Ok () -> incr certified; "exhausted"
            | Error msg ->
              incr uncertified;
              Printf.printf "  uncertified %s: %s\n%!" tuple msg;
              "uncertified")
          | st -> status_name st
        in
        if failed r.status then incr dropped
        else begin
          incr kept;
          recorded := r :: !recorded;
          Printf.fprintf oc "%s\t%.3f\t%s\t%d\t%s\t%s\n" q.qname cost status (List.length r.members) digest tuple
        end
      done;
      Printf.printf
        "%s: %d answers, %d pool tuples (%d left out as failed); %d exhausted families \
         certified by DRAT, %d not certified\n%!"
        q.qname n !kept !dropped !certified !uncertified)
    w.queries;
  close_out oc;
  let tally, check = checker w (read_pool w) in
  check !recorded;
  List.iter print_endline tally.errors;
  if tally.errors <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let mode = ref `Run and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N tuple-sampling seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds (passes start until S have elapsed)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--record", Arg.String (fun s -> workload := s; mode := `Record), "NAME re-record and certify the pool file");
      ("--corrupt", Arg.Set corrupt, " corrupt one member before the checks (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w ()
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  match !mode with
  | `Run -> run_benchmark w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~corrupt:!corrupt
  | `Record -> record w
