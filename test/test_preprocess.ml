(* SatELite-style preprocessor (Sat.Preprocess) and solver-inprocessing
   tests: equisatisfiability and model reconstruction against the
   truth-table oracle, frozen-variable projection preservation (the
   property the why-provenance pipeline actually relies on), and
   end-to-end enumeration differentials — preprocessed vs raw vs the
   powerset oracle — in every front-end configuration. *)

module D = Datalog
module P = Provenance

let parse_program src = fst (D.Parser.program_of_string src)

(* --- Generators (same shape as test_properties.ml) ---------------------- *)

let gen_lit nvars =
  QCheck.Gen.(
    let* v = int_bound (nvars - 1) in
    let* sign = bool in
    return (if sign then Sat.Lit.pos v else Sat.Lit.neg v))

let gen_cnf =
  QCheck.Gen.(
    let* nvars = int_range 1 7 in
    let* nclauses = int_bound 20 in
    let* clauses =
      list_repeat nclauses
        (let* width = int_range 1 3 in
         list_repeat width (gen_lit nvars))
    in
    return (nvars, clauses))

let arb_cnf =
  QCheck.make gen_cnf ~print:(fun (nvars, clauses) ->
      Sat.Dimacs.to_string ~nvars clauses)

(* CNF plus a random frozen set, for the projection property. *)
let arb_cnf_frozen =
  let gen =
    QCheck.Gen.(
      let* nvars, clauses = gen_cnf in
      let* frozen = list_repeat nvars bool in
      return (nvars, clauses, Array.of_list frozen))
  in
  QCheck.make gen ~print:(fun (nvars, clauses, frozen) ->
      Printf.sprintf "%s frozen:%s"
        (Sat.Dimacs.to_string ~nvars clauses)
        (String.concat ","
           (List.filteri (fun v _ -> frozen.(v)) (List.init nvars string_of_int)
           |> fun l -> if l = [] then [ "-" ] else l)))

let satisfies model clauses =
  List.for_all
    (List.exists (fun l ->
         let v = Sat.Lit.var l in
         v < Array.length model
         && if Sat.Lit.sign l then model.(v) else not model.(v)))
    clauses

(* All models of [clauses] over [0..nvars-1], projected onto the frozen
   variables (as sorted lists of frozen-var polarities). Exponential —
   generator keeps nvars <= 7. *)
let projected_models ~nvars ~frozen clauses =
  let projections = ref [] in
  for mask = 0 to (1 lsl nvars) - 1 do
    let model = Array.init nvars (fun v -> mask land (1 lsl v) <> 0) in
    if satisfies model clauses then begin
      let p =
        List.filteri (fun v _ -> frozen.(v)) (Array.to_list model |> List.mapi (fun v b -> (v, b)))
      in
      if not (List.mem p !projections) then projections := p :: !projections
    end
  done;
  List.sort compare !projections

(* --- Oracle properties ---------------------------------------------------- *)

let prop_equisatisfiable =
  QCheck.Test.make ~count:500 ~name:"simplify preserves satisfiability"
    arb_cnf (fun (nvars, clauses) ->
      let p = Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> false) clauses in
      let simplified = Sat.Preprocess.clauses p in
      Reference_oracle.satisfiable ~nvars clauses
      = Reference_oracle.satisfiable ~nvars:(Sat.Preprocess.nvars p) simplified)

let prop_extend_model_satisfies_original =
  (* Solve the simplified formula with the CDCL solver, reconstruct the
     eliminated variables, and check the extended model against every
     ORIGINAL clause — the end-to-end soundness of the reconstruction
     stack. *)
  QCheck.Test.make ~count:500 ~name:"extend_model satisfies original clauses"
    arb_cnf (fun (nvars, clauses) ->
      let p = Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> false) clauses in
      let s = Sat.Solver.create () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) (Sat.Preprocess.clauses p);
      match Sat.Solver.solve s with
      | Sat.Solver.Unsat -> not (Reference_oracle.satisfiable ~nvars clauses)
      | Sat.Solver.Sat ->
        let model = Sat.Preprocess.extend_model p (Sat.Solver.model s) in
        satisfies model clauses)

let prop_frozen_projection_preserved =
  (* The pipeline property: enumeration blocks on the projection of the
     model onto the db-fact selector variables, so preprocessing must
     preserve the SET of projections onto the frozen variables exactly
     (not just satisfiability). Subsumption and propagation preserve
     the full model set; BVE of an unfrozen v preserves the model set
     projected onto the remaining variables; frozen vars are exempt
     from BVE — so the frozen projections coincide. *)
  QCheck.Test.make ~count:300 ~name:"frozen projections preserved exactly"
    arb_cnf_frozen (fun (nvars, clauses, frozen) ->
      let p =
        Sat.Preprocess.simplify ~nvars
          ~frozen:(fun v -> v < nvars && frozen.(v))
          clauses
      in
      projected_models ~nvars ~frozen clauses
      = projected_models ~nvars ~frozen (Sat.Preprocess.clauses p))

let prop_frozen_never_eliminated =
  (* Regression: a frozen variable must survive BVE even when its
     elimination would shrink the formula. *)
  QCheck.Test.make ~count:300 ~name:"frozen variables survive BVE"
    arb_cnf_frozen (fun (nvars, clauses, frozen) ->
      let p =
        Sat.Preprocess.simplify ~nvars
          ~frozen:(fun v -> v < nvars && frozen.(v))
          clauses
      in
      List.for_all
        (fun v -> not (frozen.(v) && Sat.Preprocess.is_eliminated p v))
        (List.init nvars Fun.id))

let prop_idempotent =
  (* Running the simplifier on its own output (with enough rounds to
     have reached the fixpoint the first time) finds nothing left to
     do: no eliminations, subsumptions, strengthenings, or failed
     literals. Top-level units re-fix on reload, so fixed_vars is
     exempt. *)
  QCheck.Test.make ~count:300 ~name:"simplify is idempotent at fixpoint"
    arb_cnf (fun (nvars, clauses) ->
      let config = { Sat.Preprocess.default with max_rounds = 20 } in
      let p =
        Sat.Preprocess.simplify ~config ~nvars ~frozen:(fun _ -> false) clauses
      in
      if Sat.Preprocess.unsat p then true
      else begin
        let p2 =
          Sat.Preprocess.simplify ~config ~nvars:(Sat.Preprocess.nvars p)
            ~frozen:(fun _ -> false)
            (Sat.Preprocess.clauses p)
        in
        let s = Sat.Preprocess.stats p2 in
        s.Sat.Preprocess.eliminated_vars = 0
        && s.Sat.Preprocess.subsumed_clauses = 0
        && s.Sat.Preprocess.strengthened_clauses = 0
        && s.Sat.Preprocess.failed_literals = 0
        && s.Sat.Preprocess.clauses = s.Sat.Preprocess.original_clauses
      end)

let prop_dimacs_roundtrip_stable =
  (* Simplified output survives a DIMACS print/parse round trip and
     simplifies to itself afterwards — what the satsolve front end
     relies on when fed an already-preprocessed file. *)
  QCheck.Test.make ~count:200 ~name:"dimacs round-trip of simplified output"
    arb_cnf (fun (nvars, clauses) ->
      let config = { Sat.Preprocess.default with max_rounds = 20 } in
      let p =
        Sat.Preprocess.simplify ~config ~nvars ~frozen:(fun _ -> false) clauses
      in
      if Sat.Preprocess.unsat p then true
      else begin
        let n = Sat.Preprocess.nvars p in
        let text = Sat.Dimacs.to_string ~nvars:n (Sat.Preprocess.clauses p) in
        let n', clauses' = Sat.Dimacs.of_string text in
        let p2 =
          Sat.Preprocess.simplify ~config ~nvars:n' ~frozen:(fun _ -> false)
            clauses'
        in
        let s = Sat.Preprocess.stats p2 in
        s.Sat.Preprocess.clauses = s.Sat.Preprocess.original_clauses
        && s.Sat.Preprocess.eliminated_vars = 0
      end)

let prop_inprocessing_config_sound =
  (* Aggressive inprocessing — vivify after every conflict, on-the-fly
     subsumption on — must not change SAT/UNSAT answers. *)
  QCheck.Test.make ~count:500 ~name:"aggressive vivification agrees with oracle"
    arb_cnf (fun (nvars, clauses) ->
      let config =
        {
          Sat.Solver.default_config with
          vivify_interval = 1;
          vivify_max_clauses = 1000;
          max_learnts = 16;
        }
      in
      let s = Sat.Solver.create ~config () in
      Sat.Solver.ensure_vars s nvars;
      List.iter (Sat.Solver.add_clause s) clauses;
      (Sat.Solver.solve s = Sat.Solver.Sat)
      = Reference_oracle.satisfiable ~nvars clauses)

(* --- Enumeration differentials ------------------------------------------- *)

let acc_program = parse_program {|
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y,Z,X).
|}

let const_pool = [| "a"; "b"; "c"; "d" |]

let gen_acc_db =
  QCheck.Gen.(
    let* n_t = int_range 1 5 in
    let* t_facts =
      list_repeat n_t
        (let* x = oneofa const_pool in
         let* y = oneofa const_pool in
         let* z = oneofa const_pool in
         return (D.Fact.of_strings "t" [ x; y; z ]))
    in
    let* extra_source = bool in
    let sources =
      D.Fact.of_strings "s" [ "a" ]
      :: (if extra_source then [ D.Fact.of_strings "s" [ "b" ] ] else [])
    in
    return (sources @ t_facts))

let arb_acc_db =
  QCheck.make gen_acc_db ~print:(fun facts ->
      String.concat " " (List.map D.Fact.to_string facts))

let sorted_members e = P.Enumerate.to_list e |> List.sort D.Fact.Set.compare

let same_families a b =
  List.length a = List.length b && List.for_all2 D.Fact.Set.equal a b

(* Every goal of the model checked against the raw enumeration and the
   powerset oracle in one configuration of the enumerator. *)
let differential ~name make_enum =
  QCheck.Test.make ~count:40 ~name arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let ok = ref true in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          let pre = make_enum acc_program db goal |> sorted_members in
          let raw =
            P.Enumerate.create ~preprocess:false acc_program db goal
            |> sorted_members
          in
          let oracle = Reference_oracle.why_un_powerset acc_program db goal in
          if not (same_families pre raw && same_families pre oracle) then
            ok := false);
      !ok)

let prop_enum_preprocessed_equals_raw =
  differential ~name:"preprocessed why_un = raw = powerset oracle"
    (fun program db goal -> P.Enumerate.create program db goal)

let prop_enum_smallest_first =
  differential ~name:"smallest-first: preprocessed = raw = oracle"
    (fun program db goal ->
      P.Enumerate.create ~smallest_first:true program db goal)

let prop_enum_minimized_blocking =
  differential ~name:"minimized blocking: preprocessed = raw = oracle"
    (fun program db goal ->
      P.Enumerate.create ~minimize_blocking:true program db goal)

let prop_batch_preprocessed_equals_raw =
  (* The batch front end with a worker pool: per-tuple member lists must
     be identical with preprocessing on and off, whatever domain hosts
     the tuple. *)
  QCheck.Test.make ~count:20 ~name:"batch --jobs 4: preprocessed = raw"
    arb_acc_db (fun facts ->
      let db = D.Database.of_list facts in
      let model = D.Eval.seminaive acc_program db in
      let goals = ref [] in
      D.Database.iter_pred model (D.Symbol.intern "a") (fun goal ->
          goals := goal :: !goals);
      let spec = P.Batch.Facts (List.rev !goals) in
      let run preprocess =
        (P.Batch.run ~jobs:4 ~preprocess acc_program db spec).P.Batch.results
        |> List.map (fun (r : P.Batch.result) ->
               (r.P.Batch.fact, List.sort D.Fact.Set.compare r.P.Batch.members))
      in
      let pre = run true and raw = run false in
      List.length pre = List.length raw
      && List.for_all2
           (fun (f1, m1) (f2, m2) ->
             D.Fact.equal f1 f2 && same_families m1 m2)
           pre raw)

(* --- Unit regressions ----------------------------------------------------- *)

let test_pure_literal () =
  (* x0 occurs only positively: BVE's 0-resolvent case deletes both
     clauses and reconstruction must set x0 so they hold. x1 is frozen
     and the other techniques are off, so x0 is the only move —
     otherwise the preprocessor (correctly) eliminates x1 or probes x0
     to a unit instead. *)
  let clauses =
    [ [ Sat.Lit.pos 0; Sat.Lit.pos 1 ]; [ Sat.Lit.pos 0; Sat.Lit.neg 1 ] ]
  in
  let config =
    {
      Sat.Preprocess.default with
      subsumption = false;
      self_subsumption = false;
      probing = false;
    }
  in
  let p = Sat.Preprocess.simplify ~config ~nvars:2 ~frozen:(fun v -> v = 1) clauses in
  Alcotest.(check int) "all clauses eliminated" 0
    (List.length (Sat.Preprocess.clauses p));
  let model = Sat.Preprocess.extend_model p [| false; false |] in
  Alcotest.(check bool) "extended model satisfies" true (satisfies model clauses)

let test_unsat_detected () =
  let clauses = [ [ Sat.Lit.pos 0 ]; [ Sat.Lit.neg 0 ] ] in
  let p = Sat.Preprocess.simplify ~nvars:1 ~frozen:(fun _ -> false) clauses in
  Alcotest.(check bool) "refuted outright" true (Sat.Preprocess.unsat p);
  Alcotest.(check bool) "empty clause in output" true
    (List.mem [] (Sat.Preprocess.clauses p))

let test_frozen_blocks_elimination () =
  (* Same pure literal as above, but frozen: it must survive, clauses
     intact (modulo subsumption, which doesn't apply here). *)
  let clauses =
    [ [ Sat.Lit.pos 0; Sat.Lit.pos 1 ]; [ Sat.Lit.pos 0; Sat.Lit.neg 1 ] ]
  in
  let p = Sat.Preprocess.simplify ~nvars:2 ~frozen:(fun v -> v = 0) clauses in
  Alcotest.(check bool) "frozen var kept" false (Sat.Preprocess.is_eliminated p 0)

(* --- Probe exactness ------------------------------------------------------ *)

(* Probing skips a literal that an earlier non-failing probe implied; that
   must leave the output unchanged. Recorded before the skip existed: per
   formula and [probe_limit], the stats (clauses, literals, eliminated,
   fixed, subsumed, strengthened, failed literals, equivalent, resolvents,
   rounds), the MD5 of the simplified clauses as DIMACS and the MD5 of the
   DRAT text. The fixtures are Doctors-5 and Andersen D5 encodings with
   failed literals, their db-fact variables frozen as in the pipeline (the
   "c frozen" line). A limit of 64 makes skipped slots decide where
   probing stops. Paths are relative to the test's build directory. *)
let recorded_simplifications =
  [
    ( "fixtures/doctors5-globex-h11.cnf", 4096,
      (286, 631, 15, 5, 54, 197, 3, 153, 95, 3),
      "00976136ede99c3a6e1662c8e7a16fdc", "6a03195cba7d97900bec528f20b4230a" );
    ( "fixtures/doctors5-globex-h11.cnf", 64,
      (284, 629, 16, 3, 54, 223, 0, 154, 92, 3),
      "606bca8bb705d64d2eef2a6ac7835243", "8ea4f73c25cb05011ba3193110c3ca6b" );
    ( "fixtures/andersen-d5-x256_9-o341.cnf", 4096,
      (945, 1005, 217, 891, 22, 26, 45, 90, 77, 3),
      "c30831d3a83920836e503dffa2251dc3", "bb7a8c54616e44a48e4799f9b5b41c07" );
    ( "fixtures/andersen-d5-x256_9-o341.cnf", 64,
      (348, 415, 594, 290, 82, 232, 9, 543, 818, 3),
      "fa322abae6b5ddfc93d3f366df77dd8b", "ed33c9dbce6e4fdfc83c54cece6652f9" );
    ( "fixtures/andersen-d5-x1086_6-o703.cnf", 4096,
      (194, 397, 205, 67, 32, 45, 24, 137, 250, 3),
      "1eae2ae4e05c280fbfce646cd3ee5f8e", "e8cff219b61263f50fc5317720ca8644" );
    ( "fixtures/andersen-d5-x1086_6-o703.cnf", 64,
      (281, 739, 261, 11, 32, 79, 4, 126, 461, 3),
      "3bddbb17069aeed6f5e238bfa7fcdc70", "d5855de6391111a8440e7e17e830fe75" );
    ( "../examples/cnf/chain.cnf", 4096,
      (2, 2, 3, 2, 1, 1, 1, 0, 0, 2),
      "25ce9b20e502e0a05d23d034c6965ed3", "18680639c405f16de784bd4881f96e80" );
    ( "../examples/cnf/php43.cnf", 4096,
      (1, 0, 5, 7, 0, 2, 3, 0, 18, 2),
      "47b56627a5410fc73a392fc2e2f3f814", "f0e4f05de676c11e7b6bb5aa2061020d" );
    ( "../examples/cnf/corpus/php54.cnf", 4096,
      (40, 120, 5, 0, 0, 0, 0, 0, 20, 2),
      "467e7472f12695935ced4ca8a84432c6", "f0bec13cc25f2cfad647be0557b45c5f" );
    ( "../examples/cnf/corpus/random-a.cnf", 4096,
      (198, 605, 4, 0, 0, 0, 0, 0, 11, 2),
      "c48953f434ecb9aaa8756c90ab104bde", "a1757ea6e04358d8a4cee95257270f02" );
    ( "../examples/cnf/corpus/random-b.cnf", 4096,
      (208, 632, 2, 0, 0, 0, 0, 0, 8, 2),
      "a57168cfe8928be6f0000015babc08f4", "6c41e0b42b46356491b1670e451ff7a0" );
    ( "../examples/cnf/corpus/sudoku-2.cnf", 4096,
      (49, 49, 4, 49, 8, 0, 0, 10, 6, 2),
      "402cf9e6d5312d1578e6187128a79e45", "5777b8a3c8a02aa363dddca8509041cf" );
    ( "../examples/cnf/corpus/unit-conflict.cnf", 4096,
      (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
      "bc935b04f50d491dd2ed9232d9a74b8d", "897316929176464ebc9ad085f31e7284" );
    ( "../examples/cnf/corpus/xor-chain-unsat.cnf", 4096,
      (1, 0, 0, 47, 0, 0, 0, 0, 0, 0),
      "fc84193df61484c6d4020b56caad6fe1", "e30299842d7a9d55375bc06cb01221c2" );
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let frozen_vars src =
  String.split_on_char '\n' src
  |> List.concat_map (fun line ->
         match String.split_on_char ' ' line with
         | "c" :: "frozen" :: vars -> List.map (fun v -> int_of_string v - 1) vars
         | _ -> [])

let test_probe_exactness () =
  List.iter
    (fun (file, probe_limit, expected, clauses_md5, proof_md5) ->
      let src = read_file file in
      let nvars, clauses = Sat.Dimacs.of_string src in
      let frozen = Array.make (max 1 nvars) false in
      List.iter (fun v -> frozen.(v) <- true) (frozen_vars src);
      let config = { Sat.Preprocess.default with probe_limit } in
      let p =
        Sat.Preprocess.simplify ~config ~drat:true ~nvars
          ~frozen:(fun v -> frozen.(v)) clauses
      in
      let s = Sat.Preprocess.stats p in
      let name what = Printf.sprintf "%s, limit %d: %s" file probe_limit what in
      let a, b, c, d, e, f, g, h, i, j = expected in
      Alcotest.(check (list int)) (name "stats") [ a; b; c; d; e; f; g; h; i; j ]
        Sat.Preprocess.
          [ s.clauses; s.literals; s.eliminated_vars; s.fixed_vars;
            s.subsumed_clauses; s.strengthened_clauses; s.failed_literals;
            s.equivalent_vars; s.resolvents_added; s.rounds ];
      let md5 text = Digest.to_hex (Digest.string text) in
      Alcotest.(check string) (name "clauses") clauses_md5
        (md5 (Sat.Dimacs.to_string ~nvars (Sat.Preprocess.clauses p)));
      Alcotest.(check string) (name "proof") proof_md5
        (md5 (Sat.Preprocess.proof p));
      if String.starts_with ~prefix:"fixtures/" file then
        Alcotest.(check bool) (name "some probes skipped") true
          (s.Sat.Preprocess.probes_skipped > 0))
    recorded_simplifications

let suite =
  ( "preprocess",
    List.map QCheck_alcotest.to_alcotest
      [
        prop_equisatisfiable;
        prop_extend_model_satisfies_original;
        prop_frozen_projection_preserved;
        prop_frozen_never_eliminated;
        prop_idempotent;
        prop_dimacs_roundtrip_stable;
        prop_inprocessing_config_sound;
        prop_enum_preprocessed_equals_raw;
        prop_enum_smallest_first;
        prop_enum_minimized_blocking;
        prop_batch_preprocessed_equals_raw;
      ]
    @ [
        Alcotest.test_case "pure literal reconstruction" `Quick test_pure_literal;
        Alcotest.test_case "top-level conflict refutes" `Quick test_unsat_detected;
        Alcotest.test_case "frozen blocks elimination" `Quick
          test_frozen_blocks_elimination;
        Alcotest.test_case "probe skipping keeps the output" `Quick
          test_probe_exactness;
      ] )
