(* Differential tests for the interned flat-tuple engine ({!Engine})
   against the structural reference implementation
   ({!Eval.seminaive_structural}): the same model facts, the same
   derivation rank for every fact, bit-identical backward rule-instance
   extraction, and results independent of the worker-domain count.
   Models are compared as sorted fact lists — the two engines agree on
   the set and on every rank, but the join planner reorders rule bodies,
   so the order in which a round {e first} emits a fact (and hence
   model iteration order) may differ on non-linear programs. What must
   be order-exact is the flat engine against {e itself} at different
   [jobs] values, which [differential] also enforces. *)

module D = Datalog
module W = Workloads

let fact = Alcotest.testable D.Fact.pp D.Fact.equal

(* The rank of every listed fact, as comparable (fact, rank) pairs. *)
let ranked_facts rank facts =
  List.map (fun f -> (D.Fact.to_string f, Option.value ~default:(-1) (rank f))) facts

(* A rule instance as a comparable string; [Eval.derivations] returns
   both engines' instances in the same order when the models iterate
   identically, but the extraction contract is about the {e set}, so
   normalize. *)
let instances program model f =
  D.Eval.derivations program model f
  |> List.map (fun (r, body) ->
         D.Rule.to_string r ^ " @ "
         ^ String.concat ", " (List.map D.Fact.to_string body))
  |> List.sort compare

(* Run both engines and require bit-identical results. [jobs] lists the
   domain counts the flat engine is exercised at; [extract] caps how
   many model facts get their rule instances cross-checked. *)
let differential ?(jobs = [ 1 ]) ?(extract = 12) name program db =
  let m_struct, r_struct = D.Eval.seminaive_structural program db in
  let sorted_struct =
    List.sort D.Fact.compare (D.Database.to_list m_struct)
  in
  let flat_order = ref None in
  List.iter
    (fun j ->
      let tag = Printf.sprintf "%s (jobs %d)" name j in
      let m_flat, r_flat = D.Engine.seminaive ~jobs:j program db in
      let l_flat = D.Database.to_list m_flat in
      Alcotest.(check (list fact))
        (tag ^ ": model") sorted_struct
        (List.sort D.Fact.compare l_flat);
      (* Iteration order must not depend on the domain count: the
         direct-append path (jobs = 1) and the task-output merge path
         (jobs > 1) must produce the same row sequence. *)
      (match !flat_order with
      | None -> flat_order := Some l_flat
      | Some first ->
        Alcotest.(check (list fact)) (tag ^ ": deterministic order") first l_flat);
      Alcotest.(check (list (pair string int)))
        (tag ^ ": ranks")
        (ranked_facts r_struct sorted_struct)
        (ranked_facts r_flat sorted_struct);
      (* Spread the extraction sample across the model so it hits facts
         of several rounds, not just the first predicate's prefix. *)
      let n = List.length sorted_struct in
      let stride = max 1 (n / max 1 extract) in
      List.iteri
        (fun i f ->
          if i mod stride = 0 then
            Alcotest.(check (list string))
              (tag ^ ": instances of " ^ D.Fact.to_string f)
              (instances program m_struct f)
              (instances program m_flat f))
        sorted_struct)
    jobs

(* Random positive (hence stratified) programs, drawn from the shared
   distribution in {!Workloads.Randprog} — the same generator (and
   shrinker) the hardening fuzzer uses, so any failure found here has a
   ready-made reproducer format. qcheck supplies the seed; the instance
   itself comes from the deterministic Rng-driven generator. *)
let gen_program_db =
  QCheck.Gen.map
    (fun seed -> W.Randprog.generate (Util.Rng.create seed))
    QCheck.Gen.(int_bound ((1 lsl 30) - 1))

let arb_program_db = QCheck.make gen_program_db ~print:W.Randprog.to_string

let prop_random_differential =
  QCheck.Test.make ~count:80 ~name:"random programs: flat = structural"
    arb_program_db (fun t ->
      differential ~extract:8 "random" (W.Randprog.program t)
        (W.Randprog.database t);
      true)

(* A random instance whose database also holds facts of intensional
   predicates — every third derived fact (rank 0 must win over the
   round that would derive it) and one all-equal tuple per IDB
   predicate — and facts of a predicate no rule mentions. *)
let augmented t =
  let program = W.Randprog.program t and db = W.Randprog.database t in
  let extra = ref [] in
  let i = ref 0 in
  D.Database.iter
    (fun f ->
      if not (D.Database.mem db f) then begin
        if !i mod 3 = 0 then extra := f :: !extra;
        incr i
      end)
    (D.Eval.seminaive program db);
  (match D.Database.domain db with
  | [] -> ()
  | c :: rest ->
    List.iter
      (fun p ->
        extra := D.Fact.make p (Array.make (D.Program.arity program p) c) :: !extra)
      (D.Program.idb program);
    let u = D.Symbol.intern "unmentioned" in
    List.iter (fun d -> extra := D.Fact.make u [| c; d |] :: !extra) (c :: rest));
  (program, D.Database.of_list (D.Database.to_list db @ !extra))

let sorted_list model = List.sort D.Fact.compare (D.Database.to_list model)

(* The flat engine's rank lookup against the structural oracle's rank
   table, on every model fact and on facts outside the model (unknown
   tuple, wrong arity), at jobs 1 and 2. *)
let prop_rank_lookup =
  QCheck.Test.make ~count:60 ~name:"rank lookup = structural ranks"
    arb_program_db (fun t ->
      let program, db = augmented t in
      let m_struct, r_struct = D.Eval.seminaive_structural program db in
      let facts = sorted_list m_struct in
      let outside =
        [ D.Fact.of_strings "unmentioned" [ "not-in-db"; "x" ];
          D.Fact.of_strings "unmentioned" [ "x" ] ]
      in
      List.iter
        (fun f ->
          if D.Database.mem db f && r_struct f <> Some 0 then
            QCheck.Test.fail_reportf "oracle: database fact %s not rank 0"
              (D.Fact.to_string f))
        facts;
      List.for_all
        (fun jobs ->
          let m_flat, r_flat = D.Engine.seminaive ~jobs program db in
          if not (List.equal D.Fact.equal facts (sorted_list m_flat)) then
            QCheck.Test.fail_reportf "jobs %d: models differ" jobs;
          List.iter
            (fun f ->
              if r_flat f <> r_struct f then
                QCheck.Test.fail_reportf "jobs %d: rank of %s differs" jobs
                  (D.Fact.to_string f))
            (facts @ outside);
          true)
        [ 1; 2 ])

(* The model iteration-order contract (Engine.seminaive, Database.iter):
   predicates in symbol order; per predicate, the database's facts in
   [Database.to_list db] order, then the derived facts round by round.
   Closure and encoding order downstream depend on it. Both engines
   keep it. *)
let check_iteration_order name db (model, rank) =
  let preds = D.Database.preds model in
  if preds <> List.sort D.Symbol.compare preds then
    QCheck.Test.fail_reportf "%s: predicates out of symbol order" name;
  let per_pred =
    List.map
      (fun p ->
        let l = ref [] in
        D.Database.iter_pred model p (fun f -> l := f :: !l);
        List.rev !l)
      preds
  in
  let all = ref [] in
  D.Database.iter (fun f -> all := f :: !all) model;
  if not (List.equal D.Fact.equal (List.rev !all) (List.concat per_pred)) then
    QCheck.Test.fail_reportf "%s: iter is not iter_pred over preds" name;
  let db_order = D.Database.to_list db in
  List.iter2
    (fun p facts ->
      let from_db = List.filter (fun f -> D.Fact.pred f = p) db_order in
      let n = List.length from_db in
      let prefix = List.filteri (fun i _ -> i < n) facts in
      let derived = List.filteri (fun i _ -> i >= n) facts in
      if not (List.equal D.Fact.equal prefix from_db) then
        QCheck.Test.fail_reportf "%s: %s database facts out of order" name
          (D.Symbol.name p);
      let ranks = List.map (fun f -> Option.get (rank f)) derived in
      if List.exists (fun r -> r < 1) ranks || ranks <> List.sort compare ranks
      then
        QCheck.Test.fail_reportf "%s: %s derived facts not round by round"
          name (D.Symbol.name p))
    preds per_pred;
  true

let prop_iteration_order =
  QCheck.Test.make ~count:60 ~name:"model iteration order" arb_program_db
    (fun t ->
      let program, db = augmented t in
      check_iteration_order "flat" db (D.Engine.seminaive program db)
      && check_iteration_order "flat jobs 2" db
           (D.Engine.seminaive ~jobs:2 program db)
      && check_iteration_order "structural" db
           (D.Eval.seminaive_structural program db))

(* The exact order on a chain: database rows first (reversed insertion
   order, as [to_list] gives them), then each round's rows. *)
let test_iteration_order_chain () =
  let program =
    fst
      (D.Parser.program_of_string
         "tc(X,Y) :- edge(X,Y).\ntc(X,Z) :- tc(X,Y), edge(Y,Z).")
  in
  let db =
    D.Database.of_list
      (List.map
         (fun (a, b) -> D.Fact.of_strings "edge" [ a; b ])
         [ ("a", "b"); ("b", "c"); ("c", "d") ])
  in
  let model = D.Eval.seminaive program db in
  let tc = ref [] in
  D.Database.iter_pred model (D.Symbol.intern "tc") (fun f ->
      tc := D.Fact.to_string f :: !tc);
  Alcotest.(check (list string))
    "tc rows"
    [ "tc(c,d)"; "tc(b,c)"; "tc(a,b)"; "tc(b,d)"; "tc(a,c)"; "tc(a,d)" ]
    (List.rev !tc)

(* Every bundled workload, at sizes small enough to run as a test but
   deep enough to recurse for several rounds. *)
let test_workload_differential () =
  let cases =
    [ ( "transclosure",
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
  in
  List.iter (fun (name, program, db) -> differential name program db) cases

(* The same model, rank table and extraction results whatever the
   domain count: jobs > 1 takes the task-local-output merge path, jobs
   = 1 the direct-append path, and both must produce the identical row
   sequence. *)
let test_parallel_determinism () =
  let program = (W.Transclosure.scenario ()).W.Scenario.program in
  let db = W.Transclosure.bitcoin_like ~facts:400 ~seed:21 () in
  differential ~jobs:[ 1; 2; 4 ] ~extract:6 "transclosure" program db;
  let program = (W.Andersen.scenario ()).W.Scenario.program in
  let db = W.Andersen.statements ~facts:250 ~seed:22 ~vars:0 () in
  differential ~jobs:[ 1; 2; 4 ] ~extract:6 "andersen" program db

(* [Symbol.to_string (Symbol.intern s) = s] — the round-trip every flat
   row depends on to decode back into facts — plus the freeze contract
   the engine relies on during a fixpoint. *)
let test_intern_round_trip () =
  let strings =
    [ "a"; "edge"; ""; "UTF-8 héllo"; "with space"; "0"; "c0"; "q?~" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) ("round-trip " ^ s) s
        (D.Symbol.to_string (D.Symbol.intern s));
      Alcotest.(check int) ("stable id " ^ s) (D.Symbol.intern s)
        (D.Symbol.intern s))
    strings;
  let known = D.Symbol.intern "already-there" in
  D.Symbol.with_frozen (fun () ->
      Alcotest.(check bool) "frozen" true (D.Symbol.is_frozen ());
      Alcotest.(check int) "frozen intern of known symbol" known
        (D.Symbol.intern "already-there");
      Alcotest.check_raises "frozen intern of new symbol"
        (Invalid_argument
           "Symbol.intern: table frozen during evaluation (new symbol \
            \"never-seen-before-xyz\")")
        (fun () -> ignore (D.Symbol.intern "never-seen-before-xyz")));
  Alcotest.(check bool) "thawed again" false (D.Symbol.is_frozen ());
  let late = D.Symbol.intern "after-thaw" in
  Alcotest.(check string) "intern works after thaw" "after-thaw"
    (D.Symbol.to_string late)

let suite =
  ( "engine",
    [ Alcotest.test_case "workload differential" `Quick test_workload_differential;
      Alcotest.test_case "parallel determinism (jobs 1/2/4)" `Quick
        test_parallel_determinism;
      Alcotest.test_case "intern round-trip and freezing" `Quick
        test_intern_round_trip;
      Alcotest.test_case "iteration order on a chain" `Quick
        test_iteration_order_chain ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_random_differential; prop_rank_lookup; prop_iteration_order ] )
