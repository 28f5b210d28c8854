type t = {
  program : Program.t;
  seed : Fact.t;
  answer_pred : Symbol.t;
  original_pred : Symbol.t;
  goal : Atom.t;
}

(* Observability (docs/OBSERVABILITY.md, "Datalog evaluation"). The
   relevance-reduction ratio of the magic-set transformation is
   magic.model_facts / eval.model_facts when a run evaluates the same
   query both ways; we record the raw sizes and leave the division to
   the reader of the snapshot. *)
module Metrics = Util.Metrics

let m_transforms = Metrics.counter "magic.transforms"
let m_rules_in = Metrics.counter "magic.rules_in"
let m_rules_out = Metrics.counter "magic.rules_out"
let m_model_facts = Metrics.counter "magic.model_facts"
let m_answers = Metrics.counter "magic.answer_facts"
let m_transform_time = Metrics.timer "magic.transform"
let m_answers_time = Metrics.timer "magic.answers"

(* Adornments are strings over {'b','f'}, one character per argument. *)

let adorned_name pred adornment =
  Symbol.intern (Printf.sprintf "%s__%s" (Symbol.name pred) adornment)

let magic_name pred adornment =
  Symbol.intern (Printf.sprintf "magic_%s__%s" (Symbol.name pred) adornment)

let adornment_of bound (atom : Atom.t) =
  String.init (Atom.arity atom) (fun i ->
      match atom.Atom.args.(i) with
      | Term.Const _ -> 'b'
      | Term.Var v -> if Hashtbl.mem bound v then 'b' else 'f')

(* Arguments of an atom at the positions an adornment marks bound. *)
let bound_args adornment (atom : Atom.t) =
  let acc = ref [] in
  String.iteri
    (fun i c -> if c = 'b' then acc := atom.Atom.args.(i) :: !acc)
    adornment;
  Array.of_list (List.rev !acc)

let add_vars bound (atom : Atom.t) =
  List.iter (fun v -> Hashtbl.replace bound v ()) (Atom.vars atom)

let transform program (goal : Atom.t) =
  if not (Program.is_idb program goal.Atom.pred) then
    invalid_arg "Magic.transform: goal predicate is not intensional";
  Metrics.time m_transform_time @@ fun () ->
  let goal_adornment =
    String.init (Atom.arity goal) (fun i ->
        match goal.Atom.args.(i) with Term.Const _ -> 'b' | Term.Var _ -> 'f')
  in
  let rules = ref [] in
  let emit head body = rules := Rule.make head (List.rev body) :: !rules in
  let processed = Hashtbl.create 16 in
  let queue = Queue.create () in
  let request pred adornment =
    if not (Hashtbl.mem processed (pred, adornment)) then begin
      Hashtbl.add processed (pred, adornment) ();
      Queue.add (pred, adornment) queue
    end
  in
  request goal.Atom.pred goal_adornment;
  while not (Queue.is_empty queue) do
    let pred, adornment = Queue.pop queue in
    List.iter
      (fun rule ->
        let head = Rule.head rule in
        (* Variables bound by the magic predicate: head positions the
           adornment marks 'b'. *)
        let bound : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 8 in
        String.iteri
          (fun i c ->
            match head.Atom.args.(i) with
            | Term.Var v -> if c = 'b' then Hashtbl.replace bound v ()
            | Term.Const _ -> ())
          adornment;
        let magic_head_atom =
          Atom.make (magic_name pred adornment) (bound_args adornment head)
        in
        (* Walk the body left to right (the SIP), rewriting intensional
           atoms to their adorned versions and emitting one magic rule
           per intensional atom. *)
        let new_body = ref [ magic_head_atom ] in
        List.iter
          (fun (atom : Atom.t) ->
            if Program.is_idb program atom.Atom.pred then begin
              let sub_adornment = adornment_of bound atom in
              request atom.Atom.pred sub_adornment;
              (* Magic rule: the bound arguments of this subgoal are
                 needed whenever the context so far is derivable. The
                 body is everything accumulated so far (including the
                 head's magic atom). *)
              let magic_sub =
                Atom.make
                  (magic_name atom.Atom.pred sub_adornment)
                  (bound_args sub_adornment atom)
              in
              (* Only emit when safe: every variable of the magic head
                 occurs in the accumulated body. *)
              emit magic_sub !new_body;
              new_body :=
                Atom.make (adorned_name atom.Atom.pred sub_adornment) atom.Atom.args
                :: !new_body
            end
            else new_body := atom :: !new_body;
            add_vars bound atom)
          (Rule.body rule);
        emit (Atom.make (adorned_name pred adornment) head.Atom.args) !new_body)
      (Program.rules_for program pred)
  done;
  let seed =
    let args = bound_args goal_adornment goal in
    Fact.make (magic_name goal.Atom.pred goal_adornment)
      (Array.map
         (function
           | Term.Const c -> c
           | Term.Var _ -> assert false)
         args)
  in
  Metrics.incr m_transforms;
  Metrics.add m_rules_in (List.length (Program.rules program));
  Metrics.add m_rules_out (List.length !rules);
  {
    program = Program.make (List.rev !rules);
    seed;
    answer_pred = adorned_name goal.Atom.pred goal_adornment;
    original_pred = goal.Atom.pred;
    goal;
  }

let answers t db =
  Metrics.time m_answers_time @@ fun () ->
  let db' = Database.of_list (t.seed :: Database.to_list db) in
  let model = Eval.seminaive t.program db' in
  (* The adorned answer relation also holds answers demanded for other
     bindings of the recursion; keep only those matching the goal. *)
  let matches f =
    let ok = ref true in
    Array.iteri
      (fun i term ->
        match term with
        | Term.Const c ->
          if not (Symbol.equal (Fact.args f).(i) c) then ok := false
        | Term.Var _ -> ())
      t.goal.Atom.args;
    !ok
  in
  Metrics.add m_model_facts (Database.size model);
  let acc = ref [] in
  Database.iter_pred model t.answer_pred (fun f ->
      if matches f then acc := Fact.make t.original_pred (Fact.args f) :: !acc);
  Metrics.add m_answers (List.length !acc);
  List.sort Fact.compare !acc
