open Datalog

(* Observability (docs/OBSERVABILITY.md, "Enumerator"). The enum.next
   timer carries the stage total; each solver descent is a sat.solve
   span nested under it, whose duration quantiles are the per-witness
   delay distribution of the paper's Figures 2/4. *)
module Metrics = Util.Metrics
module Tracing = Util.Tracing

let m_next_time = Metrics.timer "enum.next"
let m_members = Metrics.counter "enum.members"
let m_blocking_clauses = Metrics.counter "enum.blocking_clauses"
let m_blocking_literals = Metrics.counter "enum.blocking_literals"
let m_exhausted = Metrics.counter "enum.exhausted"
let m_gave_up = Metrics.counter "enum.gave_up"
let m_card_raises = Metrics.counter "enum.card_bound_raises"
let m_membership_checks = Metrics.counter "enum.membership_checks"
let m_minimized_lits = Metrics.counter "enum.blocking_minimized_literals"
let m_minimize_solves = Metrics.counter "enum.minimize_solves"

module Set_of_sets = Set.Make (struct
  type t = Fact.Set.t
  let compare = Fact.Set.compare
end)

type t = {
  closure : Closure.t;
  encoding : Encode.t;
  mutable exhausted : bool;
  mutable produced_list : Fact.Set.t list; (* newest first *)
  mutable produced_set : Set_of_sets.t;
  (* Smallest-first mode: totalizer outputs over the x variables of the
     database facts, and the current cardinality bound. *)
  card_outputs : Sat.Lit.t array option;
  mutable card_bound : int;
  (* Shrink each member's blocking clause by assumption-based core
     reduction before adding it. *)
  minimize : bool;
}

(* Caps for the minimization side-solves: at most this many per-literal
   drop tests per member, each under this conflict budget. A timed-out
   test just keeps its literal — minimization degrades, never blocks. *)
let minimize_max_tests = 64
let minimize_budget = 1000

let of_parts ?(smallest_first = false) ?(minimize_blocking = false) closure
    encoding =
  let card_outputs =
    if not smallest_first then None
    else begin
      let solver = Encode.solver encoding in
      let lits =
        Array.to_list (Encode.db_facts encoding)
        |> List.filter_map (fun f ->
               Option.map Sat.Lit.pos (Encode.fact_var encoding f))
      in
      Some (Sat.Cardinality.outputs solver lits)
    end
  in
  {
    closure;
    encoding;
    exhausted = not (Closure.derivable closure);
    produced_list = [];
    produced_set = Set_of_sets.empty;
    card_outputs;
    card_bound = 0;
    minimize = minimize_blocking;
  }

let of_closure ?acyclicity ?max_fill ?smallest_first ?preprocess
    ?minimize_blocking closure =
  of_parts ?smallest_first ?minimize_blocking closure
    (Encode.make ?acyclicity ?max_fill ?preprocess closure)

let create ?acyclicity ?max_fill ?smallest_first ?preprocess ?minimize_blocking
    program db fact =
  of_closure ?acyclicity ?max_fill ?smallest_first ?preprocess
    ?minimize_blocking
    (Closure.build program db fact)

(* Assumption-based core reduction of a member's blocking clause.

   The full blocking clause of [member] M (already added) excludes
   exactly M. Dropping a literal widens the excluded region, so every
   drop must be justified by an UNSAT answer covering exactly the extra
   region:

   - dropping [¬x_f] (f ∈ M, accumulated drop set D): leaving the
     variables of D ∪ {f} free while assuming the rest of M positive
     and all of S \ M negative asks for a member N with
     M \ (D ∪ {f}) ⊆ N ⊆ M; UNSAT proves the whole sublattice
     member-free (M itself is already blocked), and the final
     successful test subsumes all earlier ones;
   - dropping the [x_g] tail (g ∈ S \ M) as a group: assuming only
     M \ D positive (everything else free) asks for any member
     N ⊇ M \ D; UNSAT licenses the pure negative clause.

   A SAT or out-of-budget answer just keeps the literal. Every excluded
   assignment is thereby a non-member (or an already-blocked member),
   so the enumerated member set is unchanged — only reached with fewer
   descents. *)
let minimized_blocking t solver member =
  let enc = t.encoding in
  let facts = Encode.db_facts enc in
  let neg_outside =
    Array.to_list facts
    |> List.filter_map (fun f ->
           if Fact.Set.mem f member then None
           else Option.map Sat.Lit.neg (Encode.fact_var enc f))
  in
  let member_list = Fact.Set.elements member in
  let dropped = ref Fact.Set.empty in
  let tests = ref 0 in
  let limited assumptions =
    Metrics.incr m_minimize_solves;
    Sat.Solver.solve_limited ~assumptions ~conflict_budget:minimize_budget
      solver
  in
  List.iter
    (fun f ->
      if !tests < minimize_max_tests then begin
        incr tests;
        let excluded = Fact.Set.add f !dropped in
        let keep_pos =
          List.filter_map
            (fun h ->
              if Fact.Set.mem h excluded then None
              else Option.map Sat.Lit.pos (Encode.fact_var enc h))
            member_list
        in
        match limited (keep_pos @ neg_outside) with
        | Some Sat.Solver.Unsat -> dropped := excluded
        | Some Sat.Solver.Sat | None -> ()
      end)
    member_list;
  if Fact.Set.is_empty !dropped then None
  else begin
    let keep_pos =
      List.filter_map
        (fun h ->
          if Fact.Set.mem h !dropped then None
          else Option.map Sat.Lit.pos (Encode.fact_var enc h))
        member_list
    in
    let drop_outside =
      match limited keep_pos with Some Sat.Solver.Unsat -> true | _ -> false
    in
    let clause =
      List.filter_map
        (fun h ->
          if Fact.Set.mem h !dropped then None
          else Option.map Sat.Lit.neg (Encode.fact_var enc h))
        member_list
      @
      if drop_outside then []
      else
        Array.to_list facts
        |> List.filter_map (fun f ->
               if Fact.Set.mem f member then None
               else Option.map Sat.Lit.pos (Encode.fact_var enc f))
    in
    Some clause
  end

let record_member ?(want_witness = false) t solver =
  let model = Sat.Solver.model solver in
  let member = Encode.db_of_model t.encoding model in
  let witness =
    if want_witness then Some (Encode.witness_dag t.encoding model) else None
  in
  let blocking = Encode.blocking_clause t.encoding member in
  Sat.Solver.add_clause solver blocking;
  Metrics.incr m_members;
  Metrics.incr m_blocking_clauses;
  Metrics.add m_blocking_literals (List.length blocking);
  if t.minimize then begin
    match minimized_blocking t solver member with
    | None -> ()
    | Some clause ->
      Metrics.add m_minimized_lits (List.length blocking - List.length clause);
      Metrics.incr m_blocking_clauses;
      Metrics.add m_blocking_literals (List.length clause);
      Sat.Solver.add_clause solver clause
  end;
  (* One instant per model found / blocking clause added: in the trace,
     these separate the blocking-clause rounds inside an enum.next span. *)
  if Tracing.is_enabled () then
    Tracing.instant "enum.member"
      ~args:
        [
          ("support_size", Util.Json.Num (float_of_int (Fact.Set.cardinal member)));
          ("blocking_literals", Util.Json.Num (float_of_int (List.length blocking)));
        ];
  t.produced_list <- member :: t.produced_list;
  t.produced_set <- Set_of_sets.add member t.produced_set;
  (member, witness)

let next t =
  if t.exhausted then None
  else
    Metrics.time m_next_time @@ fun () ->
    let solver = Encode.solver t.encoding in
    match t.card_outputs with
    | None -> (
      match Sat.Solver.solve solver with
      | Sat.Solver.Unsat ->
        t.exhausted <- true;
        Metrics.incr m_exhausted;
        Tracing.instant "enum.exhausted";
        None
      | Sat.Solver.Sat -> Some (fst (record_member t solver)))
    | Some outputs ->
      (* Raise the cardinality bound only when no member of the current
         size remains, so members come out in non-decreasing support
         size. *)
      let n = Array.length outputs in
      let rec attempt () =
        let assumptions =
          if t.card_bound < n then [ Sat.Lit.negate outputs.(t.card_bound) ]
          else []
        in
        match Sat.Solver.solve ~assumptions solver with
        | Sat.Solver.Sat -> Some (fst (record_member t solver))
        | Sat.Solver.Unsat ->
          if t.card_bound >= n then begin
            t.exhausted <- true;
            Metrics.incr m_exhausted;
            Tracing.instant "enum.exhausted";
            None
          end
          else begin
            t.card_bound <- t.card_bound + 1;
            Metrics.incr m_card_raises;
            attempt ()
          end
      in
      attempt ()

let next_limited ~conflict_budget t =
  if t.exhausted then `Exhausted
  else
    Metrics.time m_next_time @@ fun () ->
    let solver = Encode.solver t.encoding in
    match Sat.Solver.solve_limited ~conflict_budget solver with
    | None ->
      Metrics.incr m_gave_up;
      `Gave_up
    | Some Sat.Solver.Unsat ->
      t.exhausted <- true;
      Metrics.incr m_exhausted;
      Tracing.instant "enum.exhausted";
      `Exhausted
    | Some Sat.Solver.Sat -> `Member (fst (record_member t solver))

let to_list ?limit t =
  let rec loop acc k =
    match limit with
    | Some l when k >= l -> List.rev acc
    | _ -> (
      match next t with
      | None -> List.rev acc
      | Some member -> loop (member :: acc) (k + 1))
  in
  loop [] 0

let count ?limit t = List.length (to_list ?limit t)

let closure t = t.closure
let encoding t = t.encoding
let produced t = List.length t.produced_list

let member t candidate =
  Metrics.incr m_membership_checks;
  if Set_of_sets.mem candidate t.produced_set then true
  else
    match Encode.assumptions_for t.encoding candidate with
    | None -> false
    | Some assumptions -> (
      match Sat.Solver.solve ~assumptions (Encode.solver t.encoding) with
      | Sat.Solver.Sat -> true
      | Sat.Solver.Unsat -> false)

let next_with_witness t =
  if t.exhausted then None
  else
    Metrics.time m_next_time @@ fun () ->
    let solver = Encode.solver t.encoding in
    match Sat.Solver.solve solver with
    | Sat.Solver.Unsat ->
      t.exhausted <- true;
      Metrics.incr m_exhausted;
      Tracing.instant "enum.exhausted";
      None
    | Sat.Solver.Sat -> (
      match record_member ~want_witness:true t solver with
      | member, Some dag -> Some (member, dag)
      | _, None -> assert false)
