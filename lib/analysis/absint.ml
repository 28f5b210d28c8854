open Datalog
module Metrics = Util.Metrics

let m_runs = Metrics.counter "analysis.absint.runs"
let m_time = Metrics.timer "analysis.absint.time"
let m_iterations = Metrics.counter "analysis.absint.iterations"
let m_grounded = Metrics.counter "analysis.absint.grounded_args"
let m_slices = Metrics.counter "slice.runs"
let m_kept = Metrics.counter "slice.rules_kept"
let m_dropped = Metrics.counter "slice.rules_dropped"
let m_certified = Metrics.counter "slice.certified"

(* ------------------------------------------------------------------ *)
(* The per-argument constant lattice                                    *)
(* ------------------------------------------------------------------ *)

type value = Bot | Consts of Symbol.t list | Top

let max_consts = 4

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Consts xs, Consts ys ->
    let u = List.sort_uniq Symbol.compare (xs @ ys) in
    if List.length u > max_consts then Top else Consts u

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Top, x | x, Top -> x
  | Consts xs, Consts ys -> (
    match List.filter (fun x -> List.exists (Symbol.equal x) ys) xs with
    | [] -> Bot
    | zs -> Consts zs)

let pp_value ppf = function
  | Bot -> Format.pp_print_string ppf "bot"
  | Top -> Format.pp_print_string ppf "top"
  | Consts cs ->
    Format.fprintf ppf "{%s}" (String.concat "," (List.map Symbol.name cs))

type t = {
  program : Program.t;
  classification : Classify.t;
  consts : (Symbol.t, value array) Hashtbl.t;
  derivable : (Symbol.t, unit) Hashtbl.t;
  card : Stats.t;
  const_iterations : int;
}

(* ------------------------------------------------------------------ *)
(* Binding/constant analysis                                            *)
(* ------------------------------------------------------------------ *)

(* Abstract evaluation of one rule body under the current per-argument
   values: the abstract binding of each variable is the meet of the
   values at all its body positions, and a constant argument must be
   compatible with its position's value. [None] means the body is
   unsatisfiable in every model the analysis over-approximates — the
   rule can never fire. *)
let rule_env consts r =
  let env : (Symbol.t, value) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun (a : Atom.t) ->
      match Hashtbl.find_opt consts a.Atom.pred with
      | None -> ok := false
      | Some vals ->
        Array.iteri
          (fun col t ->
            let pv = vals.(col) in
            match t with
            | Term.Const c -> if meet (Consts [ c ]) pv = Bot then ok := false
            | Term.Var v ->
              let cur =
                match Hashtbl.find_opt env v with Some x -> x | None -> Top
              in
              let m = meet cur pv in
              if m = Bot then ok := false;
              Hashtbl.replace env v m)
          a.Atom.args)
    (Rule.body r);
  if !ok then Some env else None

let analyze_consts program db =
  let consts : (Symbol.t, value array) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let arity = Program.arity program p in
      (* Seed from the database for ANY predicate with stored facts:
         intensional predicates may carry facts too (the engine treats
         them as rank-0 model members), and missing them here would
         wrongly refute rules over them. *)
      let init =
        if Database.count_pred db p > 0 then begin
          let seen = Array.init arity (fun _ -> Hashtbl.create 8) in
          Database.iter_pred db p (fun f ->
              let args = Fact.args f in
              Array.iteri (fun i tbl -> Hashtbl.replace tbl args.(i) ()) seen);
          Array.map
            (fun tbl ->
              if Hashtbl.length tbl > max_consts then Top
              else
                Consts
                  (List.sort Symbol.compare
                     (Hashtbl.fold (fun c () acc -> c :: acc) tbl [])))
            seen
        end
        else Array.make arity Bot
      in
      Hashtbl.replace consts p init)
    (Program.schema program);
  let iterations = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr iterations;
    List.iter
      (fun r ->
        match rule_env consts r with
        | None -> ()
        | Some env ->
          let head = Rule.head r in
          let hvals = Hashtbl.find consts head.Atom.pred in
          Array.iteri
            (fun col t ->
              let v =
                match t with
                | Term.Const c -> Consts [ c ]
                | Term.Var var -> (
                  match Hashtbl.find_opt env var with
                  | Some x -> x
                  | None -> Top (* unreachable: rules are safe *))
              in
              let j = join hvals.(col) v in
              if j <> hvals.(col) then begin
                hvals.(col) <- j;
                changed := true
              end)
            head.Atom.args)
      (Program.rules program)
  done;
  (consts, !iterations)

(* Predicates that may hold at least one fact in the least model:
   predicates with stored facts, plus the closure under "some rule with
   an all-derivable body". Over-approximates non-emptiness, so a
   predicate {e not} in the set is provably empty. *)
let analyze_derivable program db =
  let derivable : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun p ->
      (* Any stored fact — extensional or intensional — makes the
         predicate non-empty in the least model. *)
      if Database.count_pred db p > 0 then Hashtbl.replace derivable p ())
    (Program.schema program);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        let h = (Rule.head r).Atom.pred in
        if
          (not (Hashtbl.mem derivable h))
          && List.for_all
               (fun (a : Atom.t) -> Hashtbl.mem derivable a.Atom.pred)
               (Rule.body r)
        then begin
          Hashtbl.replace derivable h ();
          changed := true
        end)
      (Program.rules program)
  done;
  derivable

(* ------------------------------------------------------------------ *)
(* Cardinality/selectivity estimation                                   *)
(* ------------------------------------------------------------------ *)

let widen_after = 4
let rows_cap = 1e15

(* System-R style sequential join estimate of one rule body: [bindings]
   satisfying assignments after each atom, each equi-join dividing by
   the larger distinct count of the two sides, each constant column by
   its own. Returns the estimated firings and the per-head-column
   distinct estimates. *)
let estimate_rule card r =
  let bindings = ref 1.0 in
  let var_distinct : (Symbol.t, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (a : Atom.t) ->
      let rows, distinct =
        match Stats.find card a.Atom.pred with
        | Some { Stats.rows; distinct } -> (rows, distinct)
        | None -> (0.0, [||])
      in
      let sel = ref 1.0 in
      Array.iteri
        (fun col t ->
          let d =
            if col < Array.length distinct then Float.max 1.0 distinct.(col)
            else 1.0
          in
          match t with
          | Term.Const _ -> sel := !sel /. d
          | Term.Var v -> (
            match Hashtbl.find_opt var_distinct v with
            | Some dv ->
              sel := !sel /. Float.max dv d;
              Hashtbl.replace var_distinct v (Float.min dv d)
            | None -> Hashtbl.replace var_distinct v d))
        a.Atom.args;
      bindings := Float.min rows_cap (!bindings *. rows *. !sel))
    (Rule.body r);
  let head = Rule.head r in
  let head_distinct =
    Array.map
      (fun t ->
        match t with
        | Term.Const _ -> 1.0
        | Term.Var v -> (
          match Hashtbl.find_opt var_distinct v with
          | Some dv -> Float.min dv !bindings
          | None -> !bindings))
      head.Atom.args
  in
  (!bindings, head_distinct)

let analyze_cardinality program db (classification : Classify.t) =
  let dom = Float.max 1.0 (float_of_int (List.length (Database.domain db))) in
  let card = Stats.create () in
  (* Seed: exact statistics of the stored facts — for every predicate,
     intensional ones included (their facts enter the model at rank 0);
     absent stores are genuinely empty. *)
  let db_stats = Stats.of_database db in
  let base p =
    match Stats.find db_stats p with
    | Some s -> s
    | None ->
      { Stats.rows = 0.0;
        distinct = Array.make (Program.arity program p) 0.0 }
  in
  List.iter (fun p -> Stats.set card p (base p)) (Program.schema program);
  let update_pred p =
    let arity = Program.arity program p in
    (* Stored facts are part of the relation on top of whatever the
       rules derive. *)
    let b = base p in
    let rows_sum = ref b.Stats.rows in
    let col_max =
      Array.init arity (fun i -> Float.min b.Stats.distinct.(i) dom)
    in
    List.iter
      (fun r ->
        let est, head_distinct = estimate_rule card r in
        rows_sum := Float.min rows_cap (!rows_sum +. est);
        Array.iteri
          (fun i d -> col_max.(i) <- Float.max col_max.(i) (Float.min d dom))
          head_distinct)
      (Program.rules_for program p);
    let distinct = Array.map (fun d -> Float.min d dom) col_max in
    let prod = Array.fold_left (fun acc d -> Float.min rows_cap (acc *. Float.max 1.0 d)) 1.0 distinct in
    let rows = Float.min (Float.min !rows_sum prod) rows_cap in
    let prev = Stats.find card p in
    Stats.set card p { Stats.rows; distinct };
    match prev with
    | Some { Stats.rows = r0; distinct = d0 } ->
      Float.abs (rows -. r0) > 1e-9 *. Float.max 1.0 r0
      || Array.exists2
           (fun a b -> Float.abs (a -. b) > 1e-9 *. Float.max 1.0 b)
           distinct d0
    | None -> true
  in
  List.iter
    (fun (scc : Classify.scc) ->
      let idb = List.filter (Program.is_idb program) scc.Classify.preds in
      if idb <> [] then
        if not scc.Classify.recursive then List.iter (fun p -> ignore (update_pred p)) idb
        else begin
          (* Recursive SCC: iterate the component's estimates; if they
             have not settled after [widen_after] rounds, widen every
             member straight to the cap — each column bounded by the
             active domain, rows by the column product — which is the
             lattice top, so the fixpoint is reached by construction. *)
          let rec iterate n =
            Metrics.incr m_iterations;
            let changed =
              List.fold_left (fun acc p -> update_pred p || acc) false idb
            in
            if changed && n + 1 < widen_after then iterate (n + 1)
            else if changed then
              List.iter
                (fun p ->
                  let arity = Program.arity program p in
                  let distinct = Array.make arity dom in
                  let prod =
                    Array.fold_left
                      (fun acc d -> Float.min rows_cap (acc *. d))
                      1.0 distinct
                  in
                  Stats.set card p { Stats.rows = prod; distinct })
                idb
          in
          iterate 0
        end)
    classification.Classify.sccs;
  card

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                      *)
(* ------------------------------------------------------------------ *)

let analyze program db =
  Metrics.time m_time @@ fun () ->
  Metrics.incr m_runs;
  let classification = Classify.classify program in
  let consts, const_iterations = analyze_consts program db in
  let derivable = analyze_derivable program db in
  (* The constant analysis can prove emptiness the reachability fixpoint
     cannot: a position whose value stays [Bot] admits no fact at all,
     so any predicate with a [Bot] position is empty in the least model. *)
  List.iter
    (fun p ->
      match Hashtbl.find_opt consts p with
      | Some vals when Array.exists (fun v -> v = Bot) vals ->
        Hashtbl.remove derivable p
      | _ -> ())
    (Program.schema program);
  let card = analyze_cardinality program db classification in
  let t = { program; classification; consts; derivable; card; const_iterations } in
  Metrics.add m_iterations const_iterations;
  Metrics.add m_grounded
    (Hashtbl.fold
       (fun _ vals acc ->
         Array.fold_left
           (fun acc v -> match v with Consts [ _ ] -> acc + 1 | _ -> acc)
           acc vals)
       consts 0);
  t

let constants t p = Hashtbl.find_opt t.consts p

let grounded t =
  let acc = ref [] in
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.consts p with
      | None -> ()
      | Some vals ->
        Array.iteri
          (fun col v ->
            match v with Consts [ c ] -> acc := (p, col, c) :: !acc | _ -> ())
          vals)
    (Program.schema t.program);
  List.rev !acc

let stats t = t.card
let derivable t p = Hashtbl.mem t.derivable p

(* ------------------------------------------------------------------ *)
(* Adorned binding patterns                                             *)
(* ------------------------------------------------------------------ *)

let adornments t ~query =
  let program = t.program in
  let seen : (Symbol.t * string, unit) Hashtbl.t = Hashtbl.create 16 in
  let queue = Queue.create () in
  let push p ad =
    if not (Hashtbl.mem seen (p, ad)) then begin
      Hashtbl.replace seen (p, ad) ();
      Queue.add (p, ad) queue
    end
  in
  (if Program.is_idb program query then
     push query (String.make (Program.arity program query) 'b'));
  while not (Queue.is_empty queue) do
    let p, ad = Queue.pop queue in
    List.iter
      (fun r ->
        let bound : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 8 in
        Array.iteri
          (fun col tm ->
            match tm with
            | Term.Var v when col < String.length ad && ad.[col] = 'b' ->
              Hashtbl.replace bound v ()
            | _ -> ())
          (Rule.head r).Atom.args;
        (* Left-to-right sideways information passing over the textual
           body order: the adornment vocabulary is a property of the
           program, independent of any join-order choice. *)
        List.iter
          (fun (a : Atom.t) ->
            let b = Bytes.make (Atom.arity a) 'f' in
            Array.iteri
              (fun col tm ->
                match tm with
                | Term.Const _ -> Bytes.set b col 'b'
                | Term.Var v ->
                  if Hashtbl.mem bound v then Bytes.set b col 'b')
              a.Atom.args;
            if Program.is_idb program a.Atom.pred then
              push a.Atom.pred (Bytes.to_string b);
            Array.iter
              (fun tm ->
                match tm with
                | Term.Var v -> Hashtbl.replace bound v ()
                | Term.Const _ -> ())
              a.Atom.args)
          (Rule.body r))
      (Program.rules_for program p)
  done;
  Hashtbl.fold (fun (p, ad) () acc -> (p, ad) :: acc) seen []
  |> List.sort (fun (p, a) (q, b) ->
         match Symbol.compare p q with 0 -> String.compare a b | c -> c)

(* ------------------------------------------------------------------ *)
(* Query-relevance slicing                                              *)
(* ------------------------------------------------------------------ *)

type reason = Unreachable | Underivable of Symbol.t | Constant_conflict

let reason_to_string = function
  | Unreachable -> "unreachable from the query"
  | Underivable p ->
    Printf.sprintf "body predicate %s is provably empty" (Symbol.name p)
  | Constant_conflict -> "constant analysis proves the body unsatisfiable"

type slice = {
  s_query : Symbol.t;
  s_original : Program.t;
  s_program : Program.t;
  s_kept : Rule.t list;
  s_dropped : (Rule.t * reason) list;
  s_relevant : Symbol.t list;
  s_edb_dropped : Symbol.t list;
}

let slice t ~query =
  Metrics.incr m_slices;
  let program = t.program in
  let rules = Program.rules program in
  (* A rule is dead when its body provably cannot match in the least
     model: some body predicate is empty (Underivable), or the constant
     analysis refutes the body (Constant_conflict). Dead rules derive
     nothing, so dropping them never changes the model. *)
  let deadness r =
    let underivable =
      List.find_opt
        (fun (a : Atom.t) -> not (Hashtbl.mem t.derivable a.Atom.pred))
        (Rule.body r)
    in
    match underivable with
    | Some a -> Some (Underivable a.Atom.pred)
    | None -> if rule_env t.consts r = None then Some Constant_conflict else None
  in
  let dead = List.map (fun r -> (r, deadness r)) rules in
  let dead_ids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (r, d) -> if d <> None then Hashtbl.replace dead_ids r.Rule.id ())
    dead;
  (* Cone of influence: predicates backward-reachable from the query
     through live rules only — a dead rule's body cannot contribute. *)
  let relevant : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec visit p =
    if not (Hashtbl.mem relevant p) then begin
      Hashtbl.replace relevant p ();
      List.iter
        (fun r ->
          if not (Hashtbl.mem dead_ids r.Rule.id) then
            List.iter (fun (a : Atom.t) -> visit a.Atom.pred) (Rule.body r))
        (Program.rules_for program p)
    end
  in
  visit query;
  let kept = ref [] and dropped = ref [] in
  List.iter
    (fun (r, death) ->
      let head = (Rule.head r).Atom.pred in
      if Symbol.equal head query then
        (* Rules defining the query predicate are always kept, dead or
           not, so the sliced program still defines the query and the
           downstream [Explain.query] contract holds. *)
        kept := r :: !kept
      else
        match death with
        | Some reason -> dropped := (r, reason) :: !dropped
        | None ->
          if Hashtbl.mem relevant head then kept := r :: !kept
          else dropped := (r, Unreachable) :: !dropped)
    dead;
  let kept = List.rev !kept and dropped = List.rev !dropped in
  (* Predicate status must survive slicing: a cone predicate that is
     intensional in the original but loses every defining rule would
     turn extensional in the sliced program — and stored facts of an
     extensional predicate are why-provenance leaves ({!Naive.why_un}),
     so the query's why-sets could grow. Retain one dead rule per such
     predicate; its reason is necessarily Underivable or
     Constant_conflict (an unreachable head is outside the cone), so it
     still never fires and the model is untouched. *)
  let kept, dropped =
    let defined : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (r : Rule.t) -> Hashtbl.replace defined (Rule.head r).Atom.pred ())
      kept;
    let kept' = ref (List.rev kept) and dropped' = ref [] in
    List.iter
      (fun (r, reason) ->
        let head = (Rule.head r).Atom.pred in
        if Hashtbl.mem relevant head && not (Hashtbl.mem defined head) then begin
          Hashtbl.replace defined head ();
          kept' := r :: !kept'
        end
        else dropped' := (r, reason) :: !dropped')
      dropped;
    (List.rev !kept', List.rev !dropped')
  in
  Metrics.add m_kept (List.length kept);
  Metrics.add m_dropped (List.length dropped);
  let s_relevant =
    List.sort Symbol.compare
      (Hashtbl.fold (fun p () acc -> p :: acc) relevant [])
  in
  let s_edb_dropped =
    List.filter (fun p -> not (Hashtbl.mem relevant p)) (Program.edb program)
  in
  {
    s_query = query;
    s_original = program;
    s_program = Program.make kept;
    s_kept = kept;
    s_dropped = dropped;
    s_relevant;
    s_edb_dropped;
  }

let relevant_db s db =
  let relevant : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace relevant p ()) s.s_relevant;
  let out = Database.create ~size:(Database.size db) () in
  Database.iter
    (fun f -> if Hashtbl.mem relevant (Fact.pred f) then ignore (Database.add out f))
    db;
  out

exception Fires

(* The certificate: every drop reason re-established against the full
   structural model, plus model- and rank-equality over the relevant
   predicates between the original and the sliced evaluation. This is
   the whole soundness claim of the slice, checked by the reference
   engine rather than trusted from the abstract run. *)
let certify s db =
  let full_ranks : int Fact.Table.t = Fact.Table.create 256 in
  let full = Eval.seminaive_structural ~ranks:full_ranks s.s_original db in
  let sliced_ranks : int Fact.Table.t = Fact.Table.create 256 in
  let sliced =
    Eval.seminaive_structural ~ranks:sliced_ranks s.s_program (relevant_db s db)
  in
  let relevant : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace relevant p ()) s.s_relevant;
  let restrict model =
    let acc = ref Fact.Set.empty in
    Database.iter
      (fun f -> if Hashtbl.mem relevant (Fact.pred f) then acc := Fact.Set.add f !acc)
      model;
    !acc
  in
  let reasons_ok =
    List.for_all
      (fun (r, reason) ->
        match reason with
        | Unreachable ->
          not (Hashtbl.mem relevant (Rule.head r).Atom.pred)
        | Underivable p -> Database.count_pred full p = 0
        | Constant_conflict -> (
          let b : Eval.binding = Hashtbl.create 8 in
          match Eval.match_body full b (Rule.body r) (fun () -> raise Fires) with
          | () -> true
          | exception Fires -> false))
      s.s_dropped
  in
  let full_restricted = restrict full and sliced_restricted = restrict sliced in
  let models_ok = Fact.Set.equal full_restricted sliced_restricted in
  let ranks_ok =
    Fact.Set.for_all
      (fun f ->
        Fact.Table.find_opt full_ranks f = Fact.Table.find_opt sliced_ranks f)
      full_restricted
  in
  let ok = reasons_ok && models_ok && ranks_ok in
  if ok then Metrics.incr m_certified;
  ok

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let pp ppf t =
  Format.fprintf ppf "@[<v>constants (bot < const-set<=%d < top):@," max_consts;
  List.iter
    (fun p ->
      match Hashtbl.find_opt t.consts p with
      | None -> ()
      | Some vals ->
        Format.fprintf ppf "  %s%s: (%s)@," (Symbol.name p)
          (if Program.is_edb t.program p then "" else "*")
          (String.concat ", "
             (Array.to_list
                (Array.map (Format.asprintf "%a" pp_value) vals))))
    (Program.schema t.program);
  Format.fprintf ppf "cardinality (rows / per-column distinct, estimates):@,";
  List.iter
    (fun p ->
      match Stats.find t.card p with
      | None -> ()
      | Some { Stats.rows; distinct } ->
        Format.fprintf ppf "  %s%s: rows<=%.6g, distinct<=(%s)@," (Symbol.name p)
          (if Program.is_edb t.program p then "" else "*")
          rows
          (String.concat ", "
             (Array.to_list (Array.map (Printf.sprintf "%.6g") distinct))))
    (Program.schema t.program);
  let empties =
    List.filter (fun p -> not (Hashtbl.mem t.derivable p)) (Program.schema t.program)
  in
  if empties <> [] then
    Format.fprintf ppf "provably empty: %s@,"
      (String.concat ", " (List.map Symbol.name empties));
  Format.fprintf ppf "constant fixpoint: %d iteration(s)@]" t.const_iterations

let pp_slice ppf s =
  Format.fprintf ppf "@[<v>slice for query %s: kept %d rule(s), dropped %d@,"
    (Symbol.name s.s_query)
    (List.length s.s_kept) (List.length s.s_dropped);
  List.iter
    (fun (r, reason) ->
      Format.fprintf ppf "  dropped %a  [%s]@," Rule.pp r
        (reason_to_string reason))
    s.s_dropped;
  Format.fprintf ppf "relevant predicates: %s@,"
    (String.concat ", " (List.map Symbol.name s.s_relevant));
  (match s.s_edb_dropped with
  | [] -> ()
  | ps ->
    Format.fprintf ppf "irrelevant extensional predicates: %s@,"
      (String.concat ", " (List.map Symbol.name ps)));
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

module Json = Util.Json

let json_schema_version = "whyprov.analyze/1"

let value_json = function
  | Bot -> Json.Str "bot"
  | Top -> Json.Str "top"
  | Consts cs -> Json.List (List.map (fun c -> Json.Str (Symbol.name c)) cs)

let slice_json s =
  Json.Obj
    [
      ("query", Json.Str (Symbol.name s.s_query));
      ("kept", Json.Num (float_of_int (List.length s.s_kept)));
      ( "dropped",
        Json.List
          (List.map
             (fun (r, reason) ->
               Json.Obj
                 [
                   ("rule", Json.Str (Rule.to_string r));
                   ("reason", Json.Str (reason_to_string reason));
                 ])
             s.s_dropped) );
      ( "relevant",
        Json.List (List.map (fun p -> Json.Str (Symbol.name p)) s.s_relevant)
      );
      ( "edb_dropped",
        Json.List (List.map (fun p -> Json.Str (Symbol.name p)) s.s_edb_dropped)
      );
    ]

let to_json ?query t =
  let preds = Program.schema t.program in
  let pred_json p =
    let intensional = not (Program.is_edb t.program p) in
    let consts =
      match Hashtbl.find_opt t.consts p with
      | None -> []
      | Some vals ->
        [ ("constants", Json.List (Array.to_list (Array.map value_json vals))) ]
    in
    let card =
      match Stats.find t.card p with
      | None -> []
      | Some { Stats.rows; distinct } ->
        [
          ("rows", Json.Num rows);
          ( "distinct",
            Json.List
              (Array.to_list (Array.map (fun d -> Json.Num d) distinct)) );
        ]
    in
    Json.Obj
      ([
         ("pred", Json.Str (Symbol.name p));
         ("intensional", Json.Bool intensional);
         ("derivable", Json.Bool (Hashtbl.mem t.derivable p));
       ]
      @ consts @ card)
  in
  Json.Obj
    ([
       ("schema", Json.Str json_schema_version);
       ("preds", Json.List (List.map pred_json preds));
       ( "grounded",
         Json.List
           (List.map
              (fun (p, col, c) ->
                Json.Obj
                  [
                    ("pred", Json.Str (Symbol.name p));
                    ("col", Json.Num (float_of_int col));
                    ("const", Json.Str (Symbol.name c));
                  ])
              (grounded t)) );
       ("constant_iterations", Json.Num (float_of_int t.const_iterations));
     ]
    @
    match query with
    | None -> []
    | Some q ->
      [
        ("query", Json.Str (Symbol.name q));
        ( "adornments",
          Json.List
            (List.map
               (fun (p, ad) ->
                 Json.Obj
                   [
                     ("pred", Json.Str (Symbol.name p));
                     ("adornment", Json.Str ad);
                   ])
               (adornments t ~query:q)) );
        ("slice", slice_json (slice t ~query:q));
      ])
