(* Tests for the rule-level profiler ({!Datalog.Profile}) and the
   estimate-vs-actual plan audit.

   The load-bearing contracts (profile.mli):
   - reconciliation: per-rule [firings] and [derived] sum exactly to the
     global [eval.rule_firings] / [eval.facts_derived] counters, and
     per-rule [tuples] to [eval.tuples_matched], on all five paper
     workloads;
   - determinism: the [to_json ~times:false] document is byte-identical
     across --jobs 1/2/4 and across repeated runs of the same instance;
   - audit sanity: every q-error is >= 1, extensional predicates (whose
     estimates are exact) pin to q-error 1.0, and the audit itself is
     deterministic. *)

module D = Datalog
module A = Whyprov_analysis
module W = Workloads
module M = Util.Metrics
module J = Util.Json

(* The five paper workloads, sized for unit tests (same shapes as
   test_engine.ml's differential suite). *)
let workloads () =
  [
    ( "transclosure",
      (W.Transclosure.scenario ()).W.Scenario.program,
      W.Transclosure.bitcoin_like ~facts:300 ~seed:11 () );
    ( "csda",
      (W.Csda.scenario ()).W.Scenario.program,
      W.Csda.dataflow_graph ~facts:300 ~seed:12 ~points:0 () );
    ( "andersen",
      (W.Andersen.scenario ()).W.Scenario.program,
      W.Andersen.statements ~facts:300 ~seed:13 ~vars:0 () );
    ( "galen",
      (W.Galen.scenario ()).W.Scenario.program,
      W.Galen.ontology ~facts:200 ~seed:14 ~classes:0 () );
    ( "doctors",
      (List.hd (W.Doctors.scenarios ())).W.Scenario.program,
      W.Doctors.database ~facts:300 ~seed:15 () ) ]

(* Run one profiled fixpoint from a clean slate and return the snapshot
   (plus the model, for audits). *)
let profiled ?(jobs = 1) ?stats program db =
  D.Profile.reset ();
  D.Profile.set_enabled true;
  let model =
    Fun.protect
      ~finally:(fun () -> D.Profile.set_enabled false)
      (fun () -> D.Eval.seminaive ~jobs ?stats program db)
  in
  (D.Profile.snapshot (), model)

let sum f rules = List.fold_left (fun acc r -> acc + f r) 0 rules

(* --- Reconciliation with the global registry -------------------------- *)

let test_reconciliation () =
  M.set_enabled true;
  List.iter
    (fun (name, program, db) ->
      M.reset ();
      let prof, _model = profiled program db in
      Alcotest.(check int)
        (name ^ ": firings = eval.rule_firings")
        (M.get_counter "eval.rule_firings")
        (sum (fun r -> r.D.Profile.r_firings) prof.D.Profile.rules);
      Alcotest.(check int)
        (name ^ ": derived = eval.facts_derived")
        (M.get_counter "eval.facts_derived")
        (sum (fun r -> r.D.Profile.r_derived) prof.D.Profile.rules);
      Alcotest.(check int)
        (name ^ ": tuples = eval.tuples_matched")
        (M.get_counter "eval.tuples_matched")
        (sum (fun r -> r.D.Profile.r_tuples) prof.D.Profile.rules))
    (workloads ())

(* The per-SCC derived counts partition the same total, and the SCC
   round counts never exceed the global round count. *)
let test_scc_partition () =
  List.iter
    (fun (name, program, db) ->
      let prof, _ = profiled program db in
      Alcotest.(check int)
        (name ^ ": scc derived partition")
        (sum (fun r -> r.D.Profile.r_derived) prof.D.Profile.rules)
        (sum (fun c -> c.D.Profile.c_derived) prof.D.Profile.sccs);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (name ^ ": scc rounds bounded")
            true
            (c.D.Profile.c_rounds <= prof.D.Profile.rounds))
        prof.D.Profile.sccs)
    (workloads ())

(* Internal consistency of each rule row: the per-atom matches sum to
   the rule's tuple total, and derived <= emitted (the difference being
   rejected duplicates). *)
let test_rule_consistency () =
  List.iter
    (fun (name, program, db) ->
      let prof, _ = profiled program db in
      List.iter
        (fun r ->
          Alcotest.(check int)
            (Printf.sprintf "%s rule %d: atoms sum to tuples" name
               r.D.Profile.r_id)
            r.D.Profile.r_tuples
            (Array.fold_left
               (fun acc a -> acc + a.D.Profile.a_out)
               0 r.D.Profile.r_atoms);
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: derived <= emitted" name
               r.D.Profile.r_id)
            true
            (r.D.Profile.r_derived <= r.D.Profile.r_emitted);
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: hits <= probes" name
               r.D.Profile.r_id)
            true
            (r.D.Profile.r_hits <= r.D.Profile.r_probes))
        prof.D.Profile.rules)
    (workloads ())

(* --- Determinism across the domain pool -------------------------------- *)

let canonical prof =
  J.to_string (D.Profile.to_json ~times:false prof)

let test_jobs_determinism () =
  List.iter
    (fun (name, program, db) ->
      let reference = ref None in
      List.iter
        (fun jobs ->
          let prof, _ = profiled ~jobs program db in
          let doc = canonical prof in
          match !reference with
          | None -> reference := Some doc
          | Some first ->
            Alcotest.(check string)
              (Printf.sprintf "%s: jobs %d profile identical" name jobs)
              first doc)
        [ 1; 2; 4 ])
    (workloads ())

let test_accumulation () =
  let _, program, db = List.hd (workloads ()) in
  let one, _ = profiled program db in
  D.Profile.reset ();
  D.Profile.set_enabled true;
  ignore (D.Eval.seminaive program db);
  ignore (D.Eval.seminaive program db);
  D.Profile.set_enabled false;
  let two = D.Profile.snapshot () in
  Alcotest.(check int) "runs accumulate" 2 two.D.Profile.runs;
  Alcotest.(check int)
    "firings accumulate"
    (2 * sum (fun r -> r.D.Profile.r_firings) one.D.Profile.rules)
    (sum (fun r -> r.D.Profile.r_firings) two.D.Profile.rules)

let test_disabled_is_noop () =
  let _, program, db = List.hd (workloads ()) in
  D.Profile.reset ();
  ignore (D.Eval.seminaive program db);
  let prof = D.Profile.snapshot () in
  Alcotest.(check int) "no runs recorded when disabled" 0 prof.D.Profile.runs;
  Alcotest.(check int)
    "no rules recorded when disabled" 0
    (List.length prof.D.Profile.rules)

(* --- The estimate-vs-actual audit -------------------------------------- *)

let audited (name, program, db) =
  let analysis = A.Absint.analyze program db in
  let est = A.Absint.stats analysis in
  let prof, model = profiled program db in
  let actual = D.Stats.of_database model in
  (name, program, est, actual, prof, D.Profile.audit ~est ~actual program prof)

(* q-error is max(est/act, act/est): >= 1 by construction, and exactly 1
   for extensional predicates the estimator saw — their estimates are
   exact row counts. (Extensional predicates the program never mentions
   are reported with estimate 0, per profile.mli, and are excluded.) *)
let test_audit_qerror () =
  List.iter
    (fun w ->
      let name, program, _est, _actual, _prof, audit = audited w in
      Alcotest.(check bool)
        (name ^ ": audit covers every model predicate")
        true
        (audit.D.Profile.a_preds <> []);
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: q-error >= 1" name
               (D.Symbol.name p.D.Profile.pa_pred))
            true
            (p.D.Profile.pa_qerr >= 1.0);
          if
            (not (D.Program.is_idb program p.D.Profile.pa_pred))
            && p.D.Profile.pa_est > 0.0
          then
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "%s %s: extensional q-error pins to 1" name
                 (D.Symbol.name p.D.Profile.pa_pred))
              1.0 p.D.Profile.pa_qerr)
        audit.D.Profile.a_preds;
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d step %d: q-error >= 1" name
               s.D.Profile.sa_rule s.D.Profile.sa_step)
            true
            (s.D.Profile.sa_qerr >= 1.0))
        audit.D.Profile.a_steps)
    (workloads ())

(* Worst-first ordering and repeat-run determinism of the audit JSON. *)
let test_audit_deterministic () =
  List.iter
    (fun w ->
      let name, _, _, _, _, audit1 = audited w in
      let _, _, _, _, _, audit2 = audited w in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          a.D.Profile.pa_qerr >= b.D.Profile.pa_qerr && sorted rest
        | _ -> true
      in
      Alcotest.(check bool)
        (name ^ ": predicate audit worst-first")
        true
        (sorted audit1.D.Profile.a_preds);
      Alcotest.(check string)
        (name ^ ": audit deterministic")
        (J.to_string (D.Profile.audit_to_json audit1))
        (J.to_string (D.Profile.audit_to_json audit2)))
    (workloads ())

(* A flip means compiling with the measured statistics changes the
   cost-based join order — re-derive that directly from the orders the
   audit reports. *)
let test_audit_flips () =
  List.iter
    (fun w ->
      let name, program, est, actual, _, audit = audited w in
      List.iter
        (fun f ->
          let order stats r =
            Array.map
              (fun i -> i.D.Plan.i_atom)
              (D.Plan.compile ~stats program r ~delta:(-1)).D.Plan.p_instrs
          in
          let r = D.Program.rule program f.D.Profile.f_rule in
          Alcotest.(check bool)
            (Printf.sprintf "%s rule %d: flip matches recompilation" name
               f.D.Profile.f_rule)
            true
            (order est r = f.D.Profile.f_est_order
            && order actual r = f.D.Profile.f_actual_order
            && f.D.Profile.f_est_order <> f.D.Profile.f_actual_order))
        audit.D.Profile.a_flips)
    (workloads ())

let suite =
  ( "profile",
    [
      Alcotest.test_case "global reconciliation" `Quick test_reconciliation;
      Alcotest.test_case "scc partition" `Quick test_scc_partition;
      Alcotest.test_case "per-rule consistency" `Quick test_rule_consistency;
      Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
      Alcotest.test_case "runs accumulate" `Quick test_accumulation;
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "audit q-errors" `Quick test_audit_qerror;
      Alcotest.test_case "audit deterministic" `Quick test_audit_deterministic;
      Alcotest.test_case "audit flips" `Quick test_audit_flips;
    ] )
