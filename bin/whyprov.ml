(* whyprov — command-line front end to the why-provenance pipeline.

   A program file mixes rules and facts in the textual Datalog syntax:

     % transitive closure
     tc(X,Y) :- edge(X,Y).
     tc(X,Z) :- tc(X,Y), edge(Y,Z).
     edge(a,b). edge(b,c).

   Commands:
     whyprov answers  FILE -q tc
     whyprov explain  FILE -q tc -t a,c [--limit N] [--tc-acyclicity]
     whyprov batch    FILE -q tc [-t a,c -t a,d | --all] [--jobs N] [--budget N]
     whyprov check    FILE [-q tc] [--format=json] [--deny-warnings]
     whyprov member   FILE -q tc -t a,c -s 'edge(a,b). edge(b,c).' [--variant un]
     whyprov tree     FILE -q tc -t a,c [--dot]
     whyprov stats    FILE -q tc -t a,c

   check is the static analyzer (docs/ANALYSIS.md): positioned
   diagnostics with stable WPxxx codes, the program-class report and the
   encoding-selection decision; explain and batch run it implicitly and
   refuse programs with errors.

   Every command additionally accepts --stats[=json] and
   --stats-out FILE, which enable the pipeline-wide metrics registry
   (see docs/OBSERVABILITY.md) and emit a snapshot when the process
   exits; --trace FILE, which records the structured event timeline
   (Chrome trace-event JSON for Perfetto / chrome://tracing) and
   flushes it on exit; and
   --progress[=N], which prints live SAT search telemetry to stderr
   every N conflicts plus a final one-line summary. *)

module D = Datalog
module P = Provenance
module A = Whyprov_analysis
module Metrics = Util.Metrics

(* Write [path] at exit through [writer]: a bad path is reported under
   [flag] instead of aborting the process with an uncaught exception. *)
let write flag path writer =
  try
    let oc = open_out path in
    writer oc;
    close_out oc
  with Sys_error msg -> Printf.eprintf "whyprov: %s: %s\n" flag msg

let write_json_line flag path json =
  write flag path (fun oc -> Printf.fprintf oc "%s\n" (Util.Json.to_string json))

(* Enable the metrics registry and register the snapshot emission for
   process exit, so commands that terminate through [exit] (check) and
   the repl all report. Human-readable output goes to stderr to keep
   the command's stdout clean; JSON goes to stdout (one line, last)
   and/or to --stats-out FILE. *)
let setup_stats stats stats_out =
  if stats <> None || stats_out <> None then begin
    Metrics.set_enabled true;
    at_exit (fun () ->
        Option.iter
          (fun path -> write_json_line "--stats-out" path (Metrics.snapshot_to_json ()))
          stats_out;
        match stats with
        | Some `Json -> print_endline (Metrics.to_json_string ())
        | Some `Human -> prerr_string (Metrics.to_string ())
        | None -> ())
  end

(* Enable the event-trace recorder and register the flush for process
   exit. Recording is stopped before flushing so the writers see a
   quiescent buffer set (worker domains are joined long before exit). *)
let setup_tracing trace =
  Option.iter
    (fun path ->
      Util.Tracing.set_enabled true;
      at_exit (fun () ->
          Util.Tracing.set_enabled false;
          write "--trace" path Util.Tracing.write_chrome))
    trace

(* Live solver telemetry: a MiniSat-style stderr line every N conflicts
   (the callback runs on whichever domain is solving, hence the mutex)
   and a deterministic one-line summary at exit. *)
let progress_lock = Mutex.create ()

let setup_progress progress =
  match progress with
  | None -> ()
  | Some interval ->
    Sat.Solver.set_progress ~interval
      (Some
         (fun (p : Sat.Solver.progress) ->
           Mutex.lock progress_lock;
           Printf.eprintf
             "whyprov: [sat] conflicts=%d restarts=%d learnts=%d lbd-avg=%.1f \
              level=%d\n\
              %!"
             p.Sat.Solver.p_conflicts p.Sat.Solver.p_restarts
             p.Sat.Solver.p_learnts p.Sat.Solver.p_lbd_avg
             p.Sat.Solver.p_decision_level;
           Mutex.unlock progress_lock));
    at_exit (fun () ->
        let t = Sat.Solver.progress_totals () in
        Printf.eprintf
          "whyprov: progress: %d solve(s), %d conflict(s), %d restart(s), %d \
           learnt clause(s)\n\
           %!"
          t.Sat.Solver.t_solves t.Sat.Solver.t_conflicts
          t.Sat.Solver.t_restarts t.Sat.Solver.t_learnt_clauses)

(* Enable the rule-level profiler and register the report for process
   exit: bare [--profile] prints the human tree to stderr (stdout stays
   diffable), [--profile=FILE] writes the whyprov.profile/1 JSON
   document to FILE. The accumulated profile covers every fixpoint the
   command ran (explain/batch materializations included). *)
let setup_profile profile =
  match profile with
  | None -> ()
  | Some target ->
    D.Profile.set_enabled true;
    at_exit (fun () ->
        D.Profile.set_enabled false;
        let prof = D.Profile.snapshot () in
        if target = "" then Format.eprintf "%a" (D.Profile.pp ?top:None) prof
        else write_json_line "--profile" target (D.Profile.to_json prof))

let setup_obs stats stats_out trace progress profile =
  setup_stats stats stats_out;
  setup_tracing trace;
  setup_progress progress;
  setup_profile profile

let load_file path =
  let rules, facts = D.Parser.split (D.Parser.parse_file path) in
  (D.Program.make rules, D.Database.of_list facts)

(* Load for explain/batch: run the static analyzer first. Errors abort
   with the positioned diagnostics on stderr; warnings are printed (to
   stderr, keeping stdout diffable) but do not block. *)
let load_checked ?query path =
  match D.Parser.parse_raw_file path with
  | exception D.Parser.Error (pos, msg) ->
    Format.eprintf "whyprov: %s@." (D.Parser.error_message pos msg);
    exit 1
  | raw ->
    let result = A.Check.check_raw ?query raw in
    List.iter
      (fun (d : A.Diagnostic.t) ->
        if d.A.Diagnostic.severity <> A.Diagnostic.Info then
          Format.eprintf "%a@." A.Diagnostic.pp d)
      result.A.Check.diagnostics;
    (match result.A.Check.program with
    | None ->
      Format.eprintf
        "whyprov: %s has %d error(s); see 'whyprov check %s'@." path
        result.A.Check.errors path;
      exit 1
    | Some program -> (program, D.Database.of_list result.A.Check.facts))

let parse_tuple s = String.split_on_char ',' s |> List.map String.trim

let parse_subset s =
  let clauses = D.Parser.parse_string s in
  List.fold_left
    (fun acc clause ->
      match clause with
      | D.Parser.Clause_fact f -> D.Fact.Set.add f acc
      | D.Parser.Clause_rule _ -> failwith "subset must contain only facts")
    D.Fact.Set.empty clauses

(* Analysis-driven preparation shared by explain/batch: runs the
   abstract-interpretation layer when cost planning or slicing is
   requested, applies the slice, and returns the (possibly sliced)
   program and database plus the planner statistics. The slice report
   goes to stderr, keeping stdout diffable against an unsliced run. *)
let prepare ~plan ~slice query_pred program db =
  if plan = `Heuristic && not slice then (program, db, None)
  else begin
    let analysis = A.Absint.analyze program db in
    let stats =
      if plan = `Cost then Some (A.Absint.stats analysis) else None
    in
    if slice then begin
      let s = A.Absint.slice analysis ~query:(D.Symbol.intern query_pred) in
      Format.eprintf "%a@." A.Absint.pp_slice s;
      (s.A.Absint.s_program, A.Absint.relevant_db s db, stats)
    end
    else (program, db, stats)
  end

(* --- Commands --------------------------------------------------------- *)

let cmd_answers () path query_pred =
  let program, db = load_file path in
  let q = P.Explain.query program query_pred in
  let answers = P.Explain.answers q db in
  List.iter (fun f -> print_endline (D.Fact.to_string f)) answers;
  Printf.printf "%% %d answer(s)\n" (List.length answers)

(* A goal that is not in the materialized model has an empty
   why-provenance by definition; treat it as a user error (mistyped
   tuple, wrong predicate) with a clear message and a non-zero exit
   rather than silently printing nothing. *)
let check_derivable closure fact =
  if not (P.Closure.derivable closure) then begin
    Format.eprintf
      "whyprov: %a is not derivable (not in the materialized model)@."
      D.Fact.pp fact;
    exit 1
  end

let cmd_explain () path query_pred tuple limit use_tc smallest witness
    no_preprocess minimize plan slice =
  let program, db = load_checked ~query:query_pred path in
  let program, db, stats = prepare ~plan ~slice query_pred program db in
  let q = P.Explain.query program query_pred in
  let fact = P.Explain.goal q (parse_tuple tuple) in
  let closure = P.Closure.build ?stats program db fact in
  check_derivable closure fact;
  let preprocess = not no_preprocess in
  if witness then begin
    let enumeration =
      P.Enumerate.of_closure ~preprocess ~minimize_blocking:minimize closure
    in
    let rec loop i =
      if i <= limit then
        match P.Enumerate.next_with_witness enumeration with
        | None -> ()
        | Some (member, dag) ->
          Format.printf "%2d. %a@." i D.Fact.pp_set member;
          Format.printf "%a@.@." P.Proof_tree.pp (P.Proof_dag.unravel dag);
          loop (i + 1)
    in
    loop 1
  end
  else if use_tc || smallest || no_preprocess || minimize then begin
    (* No flag: leave the acyclicity choice to the analyzer. The
       preprocessing/minimization toggles force the SAT enumeration
       path (the default path may answer via the closed-form
       explanation, where those knobs have no meaning). *)
    let acyclicity = if use_tc then Some P.Encode.Transitive_closure else None in
    let enumeration =
      P.Enumerate.of_closure ?acyclicity ~smallest_first:smallest ~preprocess
        ~minimize_blocking:minimize closure
    in
    let members = P.Enumerate.to_list ~limit enumeration in
    List.iteri
      (fun i m -> Format.printf "%2d. %a@." (i + 1) D.Fact.pp_set m)
      members
  end
  else begin
    let explanation = P.Explain.explain_of_closure ~limit closure in
    Format.printf "%a@." P.Explain.pp_explanation explanation
  end

let cmd_batch () path query_pred tuples all jobs limit budget no_preprocess
    minimize plan slice =
  let program, db = load_checked ~query:query_pred path in
  let program, db, stats = prepare ~plan ~slice query_pred program db in
  let q = P.Explain.query program query_pred in
  let explicit = tuples <> [] && not all in
  let spec =
    if explicit then
      P.Batch.Facts (List.map (fun t -> P.Explain.goal q (parse_tuple t)) tuples)
    else P.Batch.All_answers q.P.Explain.answer_pred
  in
  let conflict_budget = if budget > 0 then Some budget else None in
  let outcome =
    P.Batch.run ~jobs ~limit ?conflict_budget ~preprocess:(not no_preprocess)
      ~minimize_blocking:minimize ?stats program db spec
  in
  (* Stdout is tuple-ordered and independent of --jobs: the paired
     smoke tests diff a --jobs 1 run against a --jobs 2 run. *)
  let total_members = ref 0 in
  List.iter
    (fun (r : P.Batch.result) ->
      total_members := !total_members + List.length r.P.Batch.members;
      (match r.P.Batch.status with
      | P.Batch.Complete ->
        Format.printf "%a: %d member(s)@." D.Fact.pp r.P.Batch.fact
          (List.length r.P.Batch.members)
      | P.Batch.Limit_reached ->
        Format.printf "%a: at least %d members (limit)@." D.Fact.pp
          r.P.Batch.fact
          (List.length r.P.Batch.members)
      | P.Batch.Budget_exhausted ->
        Format.printf "%a: at least %d members (budget exhausted)@." D.Fact.pp
          r.P.Batch.fact
          (List.length r.P.Batch.members)
      | P.Batch.Too_large ->
        Format.printf "%a: encoding too large@." D.Fact.pp r.P.Batch.fact
      | P.Batch.Not_derivable ->
        Format.printf "%a: not derivable@." D.Fact.pp r.P.Batch.fact);
      List.iteri
        (fun i m -> Format.printf "  %2d. %a@." (i + 1) D.Fact.pp_set m)
        r.P.Batch.members)
    outcome.P.Batch.results;
  Format.printf "%% %d tuple(s), %d member(s), closure cache %d/%d hits@."
    (List.length outcome.P.Batch.results)
    !total_members outcome.P.Batch.cache_hits
    (outcome.P.Batch.cache_hits + outcome.P.Batch.cache_misses);
  if explicit then begin
    let missing =
      List.filter
        (fun (r : P.Batch.result) -> r.P.Batch.status = P.Batch.Not_derivable)
        outcome.P.Batch.results
    in
    match missing with
    | [] -> ()
    | _ ->
      List.iter
        (fun (r : P.Batch.result) ->
          Format.eprintf
            "whyprov: %a is not derivable (not in the materialized model)@."
            D.Fact.pp r.P.Batch.fact)
        missing;
      exit 1
  end

(* The rule-level profiler: whyprov profile FILE [-q PRED] [--plan=MODE]
   [--jobs N]. Materializes the model once with profiling enabled and
   prints per-rule / per-atom / per-SCC attribution plus the
   estimate-vs-actual plan audit (estimates from the
   abstract-interpretation layer, actuals from the profile and the
   materialized model). Human output is the SCC → rule → atom tree;
   --format=json emits the whyprov.profile/1 document with an "audit"
   member. --no-times drops the (nondeterministic) wall-time fields, so
   two runs of the same instance are byte-identical whatever --jobs. *)
let cmd_profile () path query jobs plan format top no_times out =
  let program, db = load_checked ?query path in
  let analysis = A.Absint.analyze program db in
  let est = A.Absint.stats analysis in
  let stats = if plan = `Cost then Some est else None in
  D.Profile.reset ();
  D.Profile.set_enabled true;
  let model = D.Eval.seminaive ~jobs ?stats program db in
  D.Profile.set_enabled false;
  let prof = D.Profile.snapshot () in
  let actual = D.Stats.of_database model in
  let audit = D.Profile.audit ~est ~actual program prof in
  match format with
  | `Human ->
    Format.printf "%a" (D.Profile.pp ~top) prof;
    Format.printf "%a" D.Profile.pp_audit audit
  | `Json -> (
    let doc =
      match D.Profile.to_json ~times:(not no_times) prof with
      | Util.Json.Obj fields ->
        Util.Json.Obj
          (fields @ [ ("audit", D.Profile.audit_to_json audit) ])
      | other -> other
    in
    let line = Util.Json.to_string doc in
    match out with
    | None -> print_endline line
    | Some file ->
      let oc = open_out file in
      output_string oc line;
      output_char oc '\n';
      close_out oc)

(* The static analyzer: whyprov check FILE [-q PRED]. Exit status is the
   contract (docs/ANALYSIS.md): 0 clean or warnings only, 1 on errors or
   (with --deny-warnings) warnings. *)
let cmd_analyze () path query format deny_warnings =
  let result = A.Check.check_file ?query path in
  (match format with
  | `Human -> Format.printf "%a" A.Check.pp_human result
  | `Json ->
    print_endline (Util.Json.to_string (A.Check.to_json ~file:path result)));
  let failed =
    result.A.Check.errors > 0
    || (deny_warnings && result.A.Check.warnings > 0)
  in
  exit (if failed then 1 else 0)

(* The abstract-interpretation report: whyprov analyze FILE [-q PRED]
   [--plans]. Everything printed is deterministic (schema order, sorted
   adornments), so the CLI smoke tests diff it against a golden file. *)
let cmd_absint_report () path query plans format =
  let program, db = load_checked ?query path in
  let analysis = A.Absint.analyze program db in
  match format with
  | `Json ->
    print_endline
      (Util.Json.to_string
         (A.Absint.to_json
            ?query:(Option.map D.Symbol.intern query)
            analysis))
  | `Human ->
  Format.printf "%a@." A.Absint.pp analysis;
  (match query with
  | None -> ()
  | Some qp ->
    let qsym = D.Symbol.intern qp in
    (match A.Absint.adornments analysis ~query:qsym with
    | [] -> ()
    | ads ->
      Format.printf "adornments (query %s, all arguments bound):@." qp;
      List.iter
        (fun (p, ad) -> Format.printf "  %s^%s@." (D.Symbol.name p) ad)
        ads);
    Format.printf "%a@." A.Absint.pp_slice (A.Absint.slice analysis ~query:qsym));
  if plans then begin
    let stats = A.Absint.stats analysis in
    Format.printf "join plans (full-evaluation tasks, heuristic vs cost):@.";
    List.iter
      (fun r ->
        Format.printf "rule %d: %a@." r.D.Rule.id D.Rule.pp r;
        Format.printf "  heuristic: %a@." D.Plan.pp
          (D.Plan.compile program r ~delta:(-1));
        Format.printf "  cost:      %a@." D.Plan.pp
          (D.Plan.compile ~stats program r ~delta:(-1)))
      (D.Program.rules program)
  end

let cmd_member () path query_pred tuple subset variant =
  let program, db = load_file path in
  let q = P.Explain.query program query_pred in
  let fact = P.Explain.goal q (parse_tuple tuple) in
  let candidate = parse_subset subset in
  let variant =
    match variant with
    | "any" -> `Any
    | "un" -> `Unambiguous
    | "nr" -> `Non_recursive
    | "md" -> `Minimal_depth
    | other -> failwith (Printf.sprintf "unknown variant %S (any|un|nr|md)" other)
  in
  let is_member = P.Explain.why_provenance ~variant q db fact candidate in
  print_endline (if is_member then "MEMBER" else "NOT A MEMBER");
  exit (if is_member then 0 else 1)

let cmd_tree () path query_pred tuple dot =
  let program, db = load_file path in
  let q = P.Explain.query program query_pred in
  let fact = P.Explain.goal q (parse_tuple tuple) in
  match P.Explain.proof_tree q db fact with
  | None ->
    prerr_endline "not derivable";
    exit 1
  | Some tree ->
    if dot then print_string (P.Proof_tree.to_dot tree)
    else Format.printf "%a@." P.Proof_tree.pp tree

let cmd_stats () path query_pred tuple =
  let program, db = load_file path in
  let q = P.Explain.query program query_pred in
  let fact = P.Explain.goal q (parse_tuple tuple) in
  let closure = P.Closure.build program db fact in
  Format.printf "%a@." P.Closure.pp_stats closure;
  let encoding = P.Encode.make closure in
  let st = P.Encode.stats encoding in
  Printf.printf
    "formula: %d variables, %d clauses, %d edges, elimination width %d, %d fill edges\n"
    st.P.Encode.variables st.P.Encode.clauses st.P.Encode.edges
    st.P.Encode.elimination_width st.P.Encode.fill_edges;
  Printf.printf "query class: %s\n" (D.Program.query_class program)

let cmd_repl () path =
  let program, db = load_file path in
  Format.printf "whyprov repl — %d rules, %d facts. Type 'help' for commands.@."
    (List.length (D.Program.rules program))
    (D.Database.size db);
  let model = lazy (D.Eval.seminaive program db) in
  let help () =
    print_string
      "  p(a,b).        explain the ground fact p(a,b)\n\
      \  p(a,X).        list matching answers (magic-sets evaluation)\n\
      \  tree p(a,b).   print one minimal-depth proof tree\n\
      \  count p(a,b).  size of why_UN (up to 10000)\n\
      \  stats          model statistics\n\
      \  help | quit\n"
  in
  let handle_atom ?(mode = `Explain) (atom : D.Atom.t) =
    if D.Atom.is_ground atom then begin
      let fact = D.Atom.to_fact atom in
      if not (D.Database.mem (Lazy.force model) fact) then
        Format.printf "not derivable.@."
      else
        match mode with
        | `Tree -> (
          let trace = P.Trace.record program db in
          match P.Trace.proof_tree trace fact with
          | Some tree -> Format.printf "%a@." P.Proof_tree.pp tree
          | None -> Format.printf "not derivable.@.")
        | `Count ->
          let e = P.Enumerate.create program db fact in
          let n = List.length (P.Enumerate.to_list ~limit:10_000 e) in
          Format.printf "%d member(s)%s@." n (if n = 10_000 then " (capped)" else "")
        | `Explain ->
          let e = P.Enumerate.create program db fact in
          List.iteri
            (fun i m -> Format.printf "%2d. %a@." (i + 1) D.Fact.pp_set m)
            (P.Enumerate.to_list ~limit:20 e)
    end
    else if D.Program.is_idb program atom.D.Atom.pred then begin
      let magic = D.Magic.transform program atom in
      let answers = D.Magic.answers magic db in
      List.iter (fun f -> Format.printf "%a@." D.Fact.pp f) answers;
      Format.printf "%% %d answer(s)@." (List.length answers)
    end
    else begin
      (* Extensional pattern: scan the database. *)
      let count = ref 0 in
      D.Database.iter_pred db atom.D.Atom.pred (fun f ->
          let matches =
            Array.for_all2
              (fun t c ->
                match t with D.Term.Const c' -> D.Symbol.equal c c' | D.Term.Var _ -> true)
              atom.D.Atom.args (D.Fact.args f)
          in
          if matches then begin
            incr count;
            Format.printf "%a@." D.Fact.pp f
          end);
      Format.printf "%% %d fact(s)@." !count
    end
  in
  let rec loop () =
    print_string "whyprov> ";
    match read_line () with
    | exception End_of_file -> ()
    | "quit" | "exit" -> ()
    | "help" -> help (); loop ()
    | "stats" ->
      let m = Lazy.force model in
      Format.printf "model: %d facts over %d predicates@." (D.Database.size m)
        (List.length (D.Database.preds m));
      List.iter
        (fun p ->
          Format.printf "  %a: %d@." D.Symbol.pp p (D.Database.count_pred m p))
        (D.Database.preds m);
      loop ()
    | "" -> loop ()
    | line -> (
      let mode, body =
        if String.length line > 5 && String.sub line 0 5 = "tree " then
          (`Tree, String.sub line 5 (String.length line - 5))
        else if String.length line > 6 && String.sub line 0 6 = "count " then
          (`Count, String.sub line 6 (String.length line - 6))
        else (`Explain, line)
      in
      let body = String.trim body in
      let body = if String.length body > 0 && body.[String.length body - 1] = '.' then body else body ^ "." in
      (match D.Parser.parse_string ("dummy :- " ^ body) with
      | [ D.Parser.Clause_rule rule ] -> (
        match D.Rule.body rule with
        | [ atom ] -> (try handle_atom ~mode atom with
          | Invalid_argument msg | Failure msg -> Format.printf "error: %s@." msg)
        | _ -> Format.printf "error: enter a single atom@.")
      | _ | (exception D.Parser.Error _) ->
        (match D.Parser.parse_string body with
        | [ D.Parser.Clause_fact f ] ->
          (try handle_atom ~mode (D.Atom.of_fact f) with
           | Invalid_argument msg | Failure msg -> Format.printf "error: %s@." msg)
        | _ -> Format.printf "error: could not parse %S@." body
        | exception D.Parser.Error (pos, msg) ->
          Format.printf "parse error: %s@." (D.Parser.error_message pos msg)));
      loop ())
  in
  loop ()

(* --- Cmdliner glue ----------------------------------------------------- *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Datalog program + facts file.")

let query_arg =
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"PRED" ~doc:"Answer predicate.")

let tuple_arg =
  Arg.(required & opt (some string) None & info [ "t"; "tuple" ] ~docv:"C1,C2,…" ~doc:"Answer tuple (comma-separated constants).")

let limit_arg =
  Arg.(value & opt int 100 & info [ "limit" ] ~docv:"N" ~doc:"Maximum number of members to enumerate.")

let tc_arg =
  Arg.(value & flag & info [ "tc-acyclicity" ] ~doc:"Use the transitive-closure acyclicity encoding instead of vertex elimination.")

let smallest_arg =
  Arg.(value & flag & info [ "smallest" ] ~doc:"Enumerate members in order of non-decreasing size (totalizer encoding).")

let witness_arg =
  Arg.(value & flag & info [ "witness" ] ~doc:"Print an unambiguous proof tree witnessing each member.")

let no_preprocess_arg =
  Arg.(
    value
    & flag
    & info [ "no-preprocess" ]
        ~doc:
          "Load the raw CNF formula instead of simplifying it first \
           (SatELite-style variable elimination, subsumption and probing). \
           The enumerated member set is identical either way.")

let minimize_arg =
  Arg.(
    value
    & flag
    & info [ "minimize-blocking" ]
        ~doc:
          "Shrink each member's blocking clause by assumption-based core \
           reduction before adding it (bounded side-solves; identical member \
           set, shorter clauses).")

let tuples_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "t"; "tuple" ] ~docv:"C1,C2,…"
        ~doc:"Answer tuple (comma-separated constants); repeatable.")

let all_arg =
  Arg.(
    value
    & flag
    & info [ "all" ]
        ~doc:"Enumerate every answer of the query predicate (default when no \
              $(b,--tuple) is given).")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for the encode/enumerate fan-out (default 1: \
              run sequentially on the calling domain).")

let budget_arg =
  Arg.(
    value
    & opt int 0
    & info [ "budget" ] ~docv:"N"
        ~doc:"Per-tuple solver conflict budget; 0 (default) means \
              unbounded solving.")

let subset_arg =
  Arg.(required & opt (some string) None & info [ "s"; "subset" ] ~docv:"FACTS" ~doc:"Candidate subset, as 'f(a). g(b).'.")

let opt_query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"PRED"
        ~doc:
          "Answer predicate; enables the reachability and derivability \
           checks (WP101/WP102/WP103) relative to it.")

let format_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json) ] in
  Arg.(
    value
    & opt fmt `Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Report format: $(b,human) (one gcc-style line per diagnostic) or \
           $(b,json) (the whyprov.check/1 document of docs/ANALYSIS.md).")

let deny_warnings_arg =
  Arg.(
    value
    & flag
    & info [ "deny-warnings" ]
        ~doc:"Exit 1 when any warning is reported (CI gate).")

let plan_arg =
  let modes = Arg.enum [ ("heuristic", `Heuristic); ("cost", `Cost) ] in
  Arg.(
    value
    & opt modes `Heuristic
    & info [ "plan" ] ~docv:"MODE"
        ~doc:
          "Join-order mode for the fixpoint: $(b,heuristic) (default; \
           bound-prefix scoring) or $(b,cost) (cardinality estimates from \
           the abstract-interpretation layer, docs/ABSINT.md). The model, \
           the answers and every why-provenance set are identical in \
           either mode.")

let slice_arg =
  Arg.(
    value
    & flag
    & info [ "slice" ]
        ~doc:
          "Drop rules and extensional predicates that provably cannot \
           contribute to the query before evaluating (query-relevance \
           slice, docs/ABSINT.md; report on stderr). Answers, members \
           and ranks are unchanged.")

let plans_arg =
  Arg.(
    value
    & flag
    & info [ "plans" ]
        ~doc:
          "Also print each rule's compiled join order in both plan modes.")

let variant_arg =
  Arg.(value & opt string "any" & info [ "variant" ] ~docv:"V" ~doc:"Proof-tree class: any, un, nr or md.")

let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz.")

let stats_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json) ] in
  Arg.(
    value
    & opt ~vopt:(Some `Human) (some fmt) None
    & info [ "stats" ] ~docv:"FORMAT"
        ~doc:
          "Record pipeline metrics (docs/OBSERVABILITY.md) and print a \
           snapshot on exit: $(b,--stats) prints the human-readable listing \
           to stderr, $(b,--stats=json) a one-line JSON snapshot to stdout.")

let stats_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:
          "Record pipeline metrics and write the JSON snapshot to $(docv) on \
           exit (implies metrics recording; combines with $(b,--stats)).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the structured event timeline (docs/OBSERVABILITY.md) and \
           write it to $(docv) as Chrome trace-event JSON on exit — load in \
           Perfetto or chrome://tracing.")

let progress_arg =
  Arg.(
    value
    & opt ~vopt:(Some 2048) (some int) None
    & info [ "progress" ] ~docv:"N"
        ~doc:
          "Print live SAT search telemetry to stderr every $(docv) conflicts \
           (default 2048) plus a one-line summary on exit.")

let profile_opt_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Record the rule-level execution profile (docs/OBSERVABILITY.md) \
           across every fixpoint the command runs: bare $(b,--profile) \
           prints the SCC → rule → atom tree to stderr on exit, \
           $(b,--profile=FILE) writes the whyprov.profile/1 JSON document \
           to $(docv).")

let stats_term =
  Term.(
    const setup_obs $ stats_arg $ stats_out_arg $ trace_arg $ progress_arg
    $ profile_opt_arg)

let answers_cmd =
  Cmd.v (Cmd.info "answers" ~doc:"Evaluate the query and print all answers")
    Term.(const cmd_answers $ stats_term $ file_arg $ query_arg)

let explain_cmd =
  Cmd.v (Cmd.info "explain" ~doc:"Enumerate the why-provenance (unambiguous proof trees) of an answer")
    Term.(const cmd_explain $ stats_term $ file_arg $ query_arg $ tuple_arg $ limit_arg $ tc_arg $ smallest_arg $ witness_arg $ no_preprocess_arg $ minimize_arg $ plan_arg $ slice_arg)

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Enumerate the why-provenance of many answers off one shared \
          materialization, optionally fanning the per-tuple solver work over \
          several worker domains")
    Term.(
      const cmd_batch $ stats_term $ file_arg $ query_arg $ tuples_arg
      $ all_arg $ jobs_arg $ limit_arg $ budget_arg $ no_preprocess_arg
      $ minimize_arg $ plan_arg $ slice_arg)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze a program: positioned diagnostics (stable WPxxx \
          codes), the program-class report (NRDat/LDat/PwlDat/Dat) and the \
          encoding-selection decision. Exits 1 on errors, or on warnings \
          with --deny-warnings.")
    Term.(
      const cmd_analyze $ stats_term $ file_arg $ opt_query_arg $ format_arg
      $ deny_warnings_arg)

let analyze_format_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json) ] in
  Arg.(
    value
    & opt fmt `Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Report format: $(b,human) (the deterministic listing) or \
           $(b,json) (the whyprov.analyze/1 document of docs/ANALYSIS.md). \
           $(b,--plans) applies to the human report only.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the abstract-interpretation layer (docs/ABSINT.md) and print \
          its report: per-argument constant values, cardinality estimates, \
          provably-empty predicates and, with $(b,-q), adorned binding \
          patterns and the query-relevance slice.")
    Term.(
      const cmd_absint_report $ stats_term $ file_arg $ opt_query_arg
      $ plans_arg $ analyze_format_arg)

let profile_format_arg =
  let fmt = Arg.enum [ ("human", `Human); ("json", `Json) ] in
  Arg.(
    value
    & opt fmt `Human
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Report format: $(b,human) (hot rules, the SCC → rule → atom tree \
           and the plan audit) or $(b,json) (the whyprov.profile/1 document \
           with an $(b,audit) member, docs/OBSERVABILITY.md).")

let top_arg =
  Arg.(
    value
    & opt int 5
    & info [ "top" ] ~docv:"K"
        ~doc:"Number of hot rules the human report lists (default 5).")

let no_times_arg =
  Arg.(
    value
    & flag
    & info [ "no-times" ]
        ~doc:
          "Omit wall-time fields from the JSON document; everything left is \
           deterministic and independent of $(b,--jobs).")

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON document to $(docv) instead of stdout.")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Materialize the model with the rule-level profiler enabled and \
          print per-rule / per-join-atom / per-SCC attribution (wall time, \
          firings, tuples, duplicates, probes, fan-out, rounds) plus the \
          estimate-vs-actual plan audit: per-predicate and per-join-step \
          q-errors against the abstract-interpretation estimates, and the \
          rules whose mis-estimates would flip the $(b,--plan=cost) join \
          order.")
    Term.(
      const cmd_profile $ stats_term $ file_arg $ opt_query_arg $ jobs_arg
      $ plan_arg $ profile_format_arg $ top_arg $ no_times_arg
      $ profile_out_arg)

let member_cmd =
  Cmd.v (Cmd.info "member" ~doc:"Decide membership of a subset in the why-provenance")
    Term.(const cmd_member $ stats_term $ file_arg $ query_arg $ tuple_arg $ subset_arg $ variant_arg)

let tree_cmd =
  Cmd.v (Cmd.info "tree" ~doc:"Print one (minimal-depth) proof tree of an answer")
    Term.(const cmd_tree $ stats_term $ file_arg $ query_arg $ tuple_arg $ dot_arg)

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive query/explain loop over a program file")
    Term.(const cmd_repl $ stats_term $ file_arg)

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Print downward-closure and formula statistics")
    Term.(const cmd_stats $ stats_term $ file_arg $ query_arg $ tuple_arg)

let () =
  let doc = "why-provenance for Datalog queries (PODS 2024 reproduction)" in
  let info = Cmd.info "whyprov" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ answers_cmd; explain_cmd; batch_cmd; check_cmd; analyze_cmd; profile_cmd; member_cmd; tree_cmd; stats_cmd; repl_cmd ]))
