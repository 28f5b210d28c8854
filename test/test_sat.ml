(* Tests for the SAT substrate: CDCL vs truth-table oracle, DPLL,
   assumptions, incremental use, enumeration counts, DIMACS. *)

let lit = Alcotest.testable (Fmt.of_to_string (fun l -> string_of_int (Sat.Lit.to_int l))) ( = )

let check_lit = Alcotest.check lit

(* --- Lit ------------------------------------------------------------ *)

let test_lit_roundtrip () =
  for i = 1 to 50 do
    check_lit "pos" (Sat.Lit.of_int i) (Sat.Lit.pos (i - 1));
    check_lit "neg" (Sat.Lit.of_int (-i)) (Sat.Lit.neg (i - 1));
    Alcotest.(check int) "to_int pos" i (Sat.Lit.to_int (Sat.Lit.pos (i - 1)));
    Alcotest.(check int) "to_int neg" (-i) (Sat.Lit.to_int (Sat.Lit.neg (i - 1)))
  done

let test_lit_negate () =
  let l = Sat.Lit.pos 7 in
  Alcotest.(check bool) "sign pos" true (Sat.Lit.sign l);
  Alcotest.(check bool) "sign neg" false (Sat.Lit.sign (Sat.Lit.negate l));
  check_lit "double negate" l (Sat.Lit.negate (Sat.Lit.negate l));
  Alcotest.(check int) "var" 7 (Sat.Lit.var (Sat.Lit.negate l))

(* --- Basic solving --------------------------------------------------- *)

let solve_clauses clauses =
  let s = Sat.Solver.create () in
  List.iter (Sat.Solver.add_clause s) clauses;
  Sat.Solver.solve s

let test_empty_formula () =
  match solve_clauses [] with
  | Sat.Solver.Sat -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "empty formula must be SAT"

let test_single_unit () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Lit.pos 0 ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat -> Alcotest.(check bool) "x0 true" true (Sat.Solver.value s 0)
  | Sat.Solver.Unsat -> Alcotest.fail "unit clause is SAT")

let test_contradiction () =
  match solve_clauses [ [ Sat.Lit.pos 0 ]; [ Sat.Lit.neg 0 ] ] with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat -> Alcotest.fail "x ∧ ¬x must be UNSAT"

let test_simple_3sat () =
  (* (x0 ∨ x1) ∧ (¬x0 ∨ x2) ∧ (¬x1 ∨ ¬x2) *)
  let open Sat.Lit in
  let clauses = [ [ pos 0; pos 1 ]; [ neg 0; pos 2 ]; [ neg 1; neg 2 ] ] in
  let s = Sat.Solver.create () in
  List.iter (Sat.Solver.add_clause s) clauses;
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
    let m = Sat.Solver.model s in
    let value l = if sign l then m.(var l) else not m.(var l) in
    List.iter
      (fun c ->
        Alcotest.(check bool) "clause satisfied" true (List.exists value c))
      clauses
  | Sat.Solver.Unsat -> Alcotest.fail "formula is SAT")

let pigeonhole_clauses n =
  (* n+1 pigeons, n holes: var p*n + h means pigeon p sits in hole h. *)
  let open Sat.Lit in
  let v p h = (p * n) + h in
  let per_pigeon =
    List.init (n + 1) (fun p -> List.init n (fun h -> pos (v p h)))
  in
  let conflicts = ref [] in
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        conflicts := [ neg (v p1 h); neg (v p2 h) ] :: !conflicts
      done
    done
  done;
  per_pigeon @ !conflicts

let test_pigeonhole_unsat () =
  List.iter
    (fun n ->
      match solve_clauses (pigeonhole_clauses n) with
      | Sat.Solver.Unsat -> ()
      | Sat.Solver.Sat -> Alcotest.failf "PHP(%d+1,%d) must be UNSAT" n n)
    [ 2; 3; 4; 5 ]

let test_pigeonhole_sat_when_enough_holes () =
  (* n pigeons in n holes is satisfiable: drop pigeon n from PHP. *)
  let n = 4 in
  let open Sat.Lit in
  let v p h = (p * n) + h in
  let per_pigeon = List.init n (fun p -> List.init n (fun h -> pos (v p h))) in
  let conflicts = ref [] in
  for h = 0 to n - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        conflicts := [ neg (v p1 h); neg (v p2 h) ] :: !conflicts
      done
    done
  done;
  match solve_clauses (per_pigeon @ !conflicts) with
  | Sat.Solver.Sat -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "PHP(n,n) is SAT"

(* --- Assumptions ------------------------------------------------------ *)

let test_assumptions () =
  let open Sat.Lit in
  let s = Sat.Solver.create () in
  (* x0 → x1, x1 → x2 *)
  Sat.Solver.add_clause s [ neg 0; pos 1 ];
  Sat.Solver.add_clause s [ neg 1; pos 2 ];
  (match Sat.Solver.solve ~assumptions:[ pos 0; neg 2 ] s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat -> Alcotest.fail "x0 ∧ ¬x2 contradicts the chain");
  (match Sat.Solver.solve ~assumptions:[ pos 0 ] s with
  | Sat.Solver.Sat ->
    Alcotest.(check bool) "x2 forced" true (Sat.Solver.value s 2)
  | Sat.Solver.Unsat -> Alcotest.fail "x0 alone is consistent");
  (* Solver must remain reusable after an UNSAT-under-assumptions. *)
  match Sat.Solver.solve s with
  | Sat.Solver.Sat -> ()
  | Sat.Solver.Unsat -> Alcotest.fail "formula itself is SAT"

let test_incremental_blocking () =
  (* Enumerate all models of (x0 ∨ x1) over 2 vars via blocking clauses. *)
  let open Sat.Lit in
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_vars s 2;
  Sat.Solver.add_clause s [ pos 0; pos 1 ];
  let count = ref 0 in
  let rec loop () =
    match Sat.Solver.solve s with
    | Sat.Solver.Unsat -> ()
    | Sat.Solver.Sat ->
      incr count;
      let m = Sat.Solver.model s in
      let blocking =
        List.init 2 (fun v -> if m.(v) then neg v else pos v)
      in
      Sat.Solver.add_clause s blocking;
      loop ()
  in
  loop ();
  Alcotest.(check int) "three models" 3 !count

(* --- Random formulas vs oracle -------------------------------------- *)

let random_cnf rng ~nvars ~nclauses ~width =
  List.init nclauses (fun _ ->
      let k = 1 + Util.Rng.int rng width in
      List.init k (fun _ ->
          let v = Util.Rng.int rng nvars in
          if Util.Rng.bool rng then Sat.Lit.pos v else Sat.Lit.neg v))

let test_random_vs_brute_force () =
  let rng = Util.Rng.create 42 in
  for _ = 1 to 300 do
    let nvars = 1 + Util.Rng.int rng 8 in
    let nclauses = Util.Rng.int rng 30 in
    let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
    let expected = Reference_oracle.satisfiable ~nvars clauses in
    let got = solve_clauses clauses = Sat.Solver.Sat in
    if expected <> got then
      Alcotest.failf "CDCL disagrees with brute force on %s"
        (Sat.Dimacs.to_string ~nvars clauses)
  done

let test_random_vs_dpll () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 200 do
    let nvars = 1 + Util.Rng.int rng 10 in
    let nclauses = Util.Rng.int rng 40 in
    let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
    let dpll = Sat.Reference.dpll ~nvars clauses <> None in
    let cdcl = solve_clauses clauses = Sat.Solver.Sat in
    Alcotest.(check bool) "dpll = cdcl" dpll cdcl
  done

let test_random_model_validity () =
  let rng = Util.Rng.create 99 in
  for _ = 1 to 200 do
    let nvars = 1 + Util.Rng.int rng 12 in
    let nclauses = Util.Rng.int rng 50 in
    let clauses = random_cnf rng ~nvars ~nclauses ~width:4 in
    let s = Sat.Solver.create () in
    Sat.Solver.ensure_vars s nvars;
    List.iter (Sat.Solver.add_clause s) clauses;
    match Sat.Solver.solve s with
    | Sat.Solver.Unsat -> ()
    | Sat.Solver.Sat ->
      let m = Sat.Solver.model s in
      let value l = if Sat.Lit.sign l then m.(Sat.Lit.var l) else not m.(Sat.Lit.var l) in
      List.iter
        (fun c ->
          if not (List.exists value c) then
            Alcotest.failf "model violates clause in %s"
              (Sat.Dimacs.to_string ~nvars clauses))
        clauses
  done

let test_enumeration_counts () =
  (* Model counts via blocking clauses must match the truth-table count. *)
  let rng = Util.Rng.create 4242 in
  for _ = 1 to 60 do
    let nvars = 1 + Util.Rng.int rng 6 in
    let nclauses = Util.Rng.int rng 12 in
    let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
    let expected = Sat.Reference.count_models ~nvars clauses in
    let s = Sat.Solver.create () in
    Sat.Solver.ensure_vars s nvars;
    List.iter (Sat.Solver.add_clause s) clauses;
    let count = ref 0 in
    let rec loop () =
      match Sat.Solver.solve s with
      | Sat.Solver.Unsat -> ()
      | Sat.Solver.Sat ->
        incr count;
        let m = Sat.Solver.model s in
        Sat.Solver.add_clause s
          (List.init nvars (fun v ->
               if m.(v) then Sat.Lit.neg v else Sat.Lit.pos v));
        loop ()
    in
    loop ();
    Alcotest.(check int) "model count" expected !count
  done

let test_random_assumptions_vs_oracle () =
  let rng = Util.Rng.create 2024 in
  for _ = 1 to 150 do
    let nvars = 2 + Util.Rng.int rng 6 in
    let nclauses = Util.Rng.int rng 20 in
    let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
    let nassum = 1 + Util.Rng.int rng 3 in
    let assumptions =
      List.init nassum (fun _ ->
          let v = Util.Rng.int rng nvars in
          if Util.Rng.bool rng then Sat.Lit.pos v else Sat.Lit.neg v)
    in
    let expected =
      Reference_oracle.satisfiable ~nvars
        (clauses @ List.map (fun l -> [ l ]) assumptions)
    in
    let s = Sat.Solver.create () in
    Sat.Solver.ensure_vars s nvars;
    List.iter (Sat.Solver.add_clause s) clauses;
    let got = Sat.Solver.solve ~assumptions s = Sat.Solver.Sat in
    Alcotest.(check bool) "assumptions agree with units" expected got;
    (* And the solver is still consistent with the formula alone. *)
    let plain = Sat.Solver.solve s = Sat.Solver.Sat in
    Alcotest.(check bool) "reusable"
      (Reference_oracle.satisfiable ~nvars clauses)
      plain
  done

(* --- DIMACS ----------------------------------------------------------- *)

let test_dimacs_roundtrip () =
  let rng = Util.Rng.create 5 in
  for _ = 1 to 50 do
    let nvars = 1 + Util.Rng.int rng 10 in
    let nclauses = Util.Rng.int rng 15 in
    let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
    let s = Sat.Dimacs.to_string ~nvars clauses in
    let nvars', clauses' = Sat.Dimacs.of_string s in
    Alcotest.(check int) "nvars" nvars nvars';
    Alcotest.(check (list (list lit))) "clauses" clauses clauses'
  done

let test_dimacs_rejects () =
  let rejects ~line src =
    match Sat.Dimacs.of_string src with
    | _ -> Alcotest.failf "accepted malformed input %S" src
    | exception (Sat.Dimacs.Parse_error { line = l; _ } as e) ->
      Alcotest.(check int)
        (Printf.sprintf "error line for %S (%s)" src
           (Sat.Dimacs.error_message e))
        line l
  in
  rejects ~line:1 "1 -2 0\n";                         (* clause before header *)
  rejects ~line:1 "p cnf oops 3\n";                   (* malformed header *)
  rejects ~line:1 "p cnf 2\n";                        (* truncated header *)
  rejects ~line:2 "p cnf 2 1\np cnf 2 1\n";           (* duplicate header *)
  rejects ~line:2 "p cnf 2 1\n1 -3 0\n";              (* literal out of range *)
  rejects ~line:2 "p cnf 2 1\n1 x 0\n";               (* non-integer literal *)
  rejects ~line:2 "p cnf 2 1\n1 -2\n";                (* unterminated clause *)
  (* Still-legal inputs: comments anywhere, SATLIB '%' end marker. *)
  let nvars, clauses =
    Sat.Dimacs.of_string "c head\np cnf 3 2\nc mid\n1 -2 0\n2 3 0\n%\n0\n"
  in
  Alcotest.(check int) "nvars" 3 nvars;
  Alcotest.(check int) "clauses" 2 (List.length clauses)

let test_solve_with_timeout () =
  (* A trivial instance finishes well inside any budget and agrees with
     the oracle; a zero budget always times out. *)
  let clauses = [ [ Sat.Lit.pos 0; Sat.Lit.pos 1 ]; [ Sat.Lit.neg 0 ] ] in
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_vars s 2;
  List.iter (Sat.Solver.add_clause s) clauses;
  (match Sat.Solver.solve_with_timeout ~timeout_s:30.0 s with
  | Some Sat.Solver.Sat -> ()
  | Some Sat.Solver.Unsat -> Alcotest.fail "instance is SAT"
  | None -> Alcotest.fail "trivial instance timed out");
  let s2 = Sat.Solver.create () in
  Sat.Solver.ensure_vars s2 2;
  List.iter (Sat.Solver.add_clause s2) clauses;
  match Sat.Solver.solve_with_timeout ~timeout_s:0.0 s2 with
  | None -> ()
  | Some _ -> Alcotest.fail "zero budget must time out"

let test_permanently_unsat () =
  let open Sat.Lit in
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ pos 0 ];
  Sat.Solver.add_clause s [ neg 0 ];
  Alcotest.(check bool) "not okay" false (Sat.Solver.okay s);
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat -> Alcotest.fail "must stay UNSAT");
  (* Adding more clauses and re-solving must not crash or flip. *)
  Sat.Solver.add_clause s [ pos 1; pos 2 ];
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat -> Alcotest.fail "still UNSAT"

let test_default_polarity () =
  let s = Sat.Solver.create () in
  Sat.Solver.set_default_polarity s true;
  Sat.Solver.ensure_vars s 4;
  Sat.Solver.add_clause s [ Sat.Lit.pos 0; Sat.Lit.pos 1 ];
  (match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
    (* Free variables follow the default phase. *)
    Alcotest.(check bool) "free var true" true (Sat.Solver.value s 3)
  | Sat.Solver.Unsat -> Alcotest.fail "SAT");
  Alcotest.(check int) "num_vars" 4 (Sat.Solver.num_vars s)

let test_model_unavailable () =
  let s = Sat.Solver.create () in
  Sat.Solver.add_clause s [ Sat.Lit.pos 0 ];
  Sat.Solver.add_clause s [ Sat.Lit.neg 0 ];
  ignore (Sat.Solver.solve s);
  match Sat.Solver.model s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "model after UNSAT must raise"

let test_at_most_zero () =
  let s = Sat.Solver.create () in
  Sat.Solver.ensure_vars s 3;
  let lits = List.init 3 Sat.Lit.pos in
  Sat.Cardinality.at_most s lits 0;
  Sat.Solver.add_clause s [ Sat.Lit.pos 1 ];
  match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat -> Alcotest.fail "at-most-0 with a forced literal is UNSAT"

(* --- Decision flags ----------------------------------------------------- *)

(* Ten core variables under a 3-CNF with a planted model, each copied
   into a chain of twenty equivalent variables: preprocessing substitutes
   or eliminates almost every variable. *)
let chained_cnf () =
  let core = 10 and chain = 20 in
  let copy k i = core + (k * chain) + i in
  let copies =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun i ->
            let prev = if i = 0 then k else copy k (i - 1) in
            Sat.Lit.[ [ neg prev; pos (copy k i) ]; [ pos prev; neg (copy k i) ] ])
          (List.init chain Fun.id))
      (List.init core Fun.id)
  in
  let planted v = v mod 2 = 0 in
  let rng = Random.State.make [| 7 |] in
  let core_clauses =
    List.init 30 (fun _ ->
        let lits =
          List.init 3 (fun _ ->
              Sat.Lit.make (Random.State.int rng core) (Random.State.bool rng))
        in
        if List.exists (fun l -> Sat.Lit.sign l = planted (Sat.Lit.var l)) lits
        then lits
        else Sat.Lit.negate (List.hd lits) :: List.tl lits)
  in
  (core * (chain + 1), core_clauses @ copies)

let satisfies model clauses =
  List.for_all
    (List.exists (fun l -> model.(Sat.Lit.var l) = Sat.Lit.sign l))
    clauses

let test_decision_flags () =
  let nvars, clauses = chained_cnf () in
  let p = Sat.Preprocess.simplify ~nvars ~frozen:(fun _ -> false) clauses in
  let st = Sat.Preprocess.stats p in
  let live =
    nvars - st.Sat.Preprocess.eliminated_vars - st.Sat.Preprocess.equivalent_vars
    - st.Sat.Preprocess.fixed_vars
  in
  Alcotest.(check bool) "most variables eliminated" true (4 * live < nvars);
  let s = Sat.Solver.create () in
  (* With phase true, a variable reads false in a model only if it was
     never decided: no clause mentions an eliminated variable. *)
  Sat.Solver.set_default_polarity s true;
  Sat.Preprocess.load p s;
  (match Sat.Solver.solve s with
  | Sat.Solver.Unsat -> Alcotest.fail "planted model: must be SAT"
  | Sat.Solver.Sat ->
    let decisions = (Sat.Solver.stats s).Sat.Solver.decisions in
    if decisions > live then
      Alcotest.failf "%d decisions for %d live variables" decisions live;
    let model = Sat.Preprocess.extend_model p (Sat.Solver.model s) in
    Alcotest.(check bool) "extended model satisfies the original" true
      (satisfies model clauses));
  let v =
    List.find (Sat.Preprocess.is_eliminated p) (List.init nvars Fun.id)
  in
  Alcotest.(check bool) "eliminated variable not decided" false
    (Sat.Solver.value s v);
  (* [w] is true at level 0, so the clause is dropped as satisfied; it
     must still make [v] a decision variable. *)
  let w = nvars in
  Sat.Solver.add_clause s [ Sat.Lit.pos w ];
  Sat.Solver.add_clause s [ Sat.Lit.neg v; Sat.Lit.pos w ];
  match Sat.Solver.solve s with
  | Sat.Solver.Sat ->
    Alcotest.(check bool) "decided again after add_clause" true
      (Sat.Solver.value s v)
  | Sat.Solver.Unsat -> Alcotest.fail "still SAT"

let suite =
  let tc = Alcotest.test_case in
  ( "sat",
    [
      tc "lit roundtrip" `Quick test_lit_roundtrip;
      tc "lit negate" `Quick test_lit_negate;
      tc "empty formula" `Quick test_empty_formula;
      tc "single unit" `Quick test_single_unit;
      tc "contradiction" `Quick test_contradiction;
      tc "simple 3sat" `Quick test_simple_3sat;
      tc "pigeonhole unsat" `Quick test_pigeonhole_unsat;
      tc "pigeonhole sat" `Quick test_pigeonhole_sat_when_enough_holes;
      tc "assumptions" `Quick test_assumptions;
      tc "incremental blocking" `Quick test_incremental_blocking;
      tc "random vs brute force" `Quick test_random_vs_brute_force;
      tc "random vs dpll" `Quick test_random_vs_dpll;
      tc "random model validity" `Quick test_random_model_validity;
      tc "enumeration counts" `Quick test_enumeration_counts;
      tc "random assumptions" `Quick test_random_assumptions_vs_oracle;
      tc "dimacs roundtrip" `Quick test_dimacs_roundtrip;
      tc "dimacs rejects malformed" `Quick test_dimacs_rejects;
      tc "solve with timeout" `Quick test_solve_with_timeout;
      tc "permanently unsat" `Quick test_permanently_unsat;
      tc "default polarity" `Quick test_default_polarity;
      tc "model unavailable" `Quick test_model_unavailable;
      tc "at-most zero" `Quick test_at_most_zero;
      tc "decision flags" `Quick test_decision_flags;
    ] )
