module Json = Util.Json

(* ------------------------------------------------------------------ *)
(* Enablement                                                          *)
(* ------------------------------------------------------------------ *)

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* ------------------------------------------------------------------ *)
(* Engine-side collection                                              *)
(* ------------------------------------------------------------------ *)

type task = {
  out : int array;
  mutable new_rows : int;
  mutable secs : float;
}

let task_create n = { out = Array.make (max n 1) 0; new_rows = 0; secs = 0.0 }
let now_s = Unix.gettimeofday

(* Per-rule accumulator of one fixpoint run. Arrays are indexed by body
   position (not join-order position): positions are stable across the
   full plan and every delta variant of the rule, so the per-atom
   totals merge cleanly whatever order each plan chose. *)
type rule_acc = {
  k_rule : Rule.t;
  k_preds : Symbol.t array;  (* body predicate per position *)
  k_edb : bool array;
      (* extensional atoms contribute to the model-side fan-out in every
         task; intensional ones only in delta tasks — a full (round-1)
         task joins intensional relations while they are still empty,
         which says nothing about the planner's final-model estimate *)
  mutable k_order : int array;  (* full-plan join order; [||] until seen *)
  mutable k_firings : int;
  mutable k_secs : float;
  mutable k_tuples : int;
  mutable k_emitted : int;
  mutable k_derived : int;
  mutable k_probes : int;
  mutable k_hits : int;
  mutable k_scans : int;
  k_in : int array;
  k_out : int array;
  k_model_in : int array;
  k_model_out : int array;
}

type run = {
  u_rules : rule_acc array;  (* dense, indexed by rule id *)
  u_sccs : Symbol.t list array;
  u_scc_of : (Symbol.t, int) Hashtbl.t;
  u_scc_rounds : int array;
  u_scc_derived : int array;
  mutable u_rounds : int;
}

let run_begin program sccs =
  let rules = Array.of_list (Program.rules program) in
  let u_rules =
    Array.map
      (fun r ->
        let body = Array.of_list (Rule.body r) in
        let n = Array.length body in
        {
          k_rule = r;
          k_preds = Array.map (fun (a : Atom.t) -> a.Atom.pred) body;
          k_edb =
            Array.map
              (fun (a : Atom.t) -> not (Program.is_idb program a.Atom.pred))
              body;
          k_order = [||];
          k_firings = 0;
          k_secs = 0.0;
          k_tuples = 0;
          k_emitted = 0;
          k_derived = 0;
          k_probes = 0;
          k_hits = 0;
          k_scans = 0;
          k_in = Array.make n 0;
          k_out = Array.make n 0;
          k_model_in = Array.make n 0;
          k_model_out = Array.make n 0;
        })
      rules
  in
  let u_sccs = Array.of_list sccs in
  let u_scc_of = Hashtbl.create 16 in
  Array.iteri
    (fun i scc -> List.iter (fun p -> Hashtbl.replace u_scc_of p i) scc)
    u_sccs;
  {
    u_rules;
    u_sccs;
    u_scc_of;
    u_scc_rounds = Array.make (Array.length u_sccs) 0;
    u_scc_derived = Array.make (Array.length u_sccs) 0;
    u_rounds = 0;
  }

let record_task run (plan : Plan.t) (t : task) ~probes ~hits ~scans =
  let id = plan.Plan.p_rule.Rule.id in
  if id >= 0 && id < Array.length run.u_rules then begin
    let acc = run.u_rules.(id) in
    let instrs = plan.Plan.p_instrs in
    let n = Array.length instrs in
    acc.k_firings <- acc.k_firings + 1;
    acc.k_secs <- acc.k_secs +. t.secs;
    acc.k_derived <- acc.k_derived + t.new_rows;
    acc.k_probes <- acc.k_probes + probes;
    acc.k_hits <- acc.k_hits + hits;
    acc.k_scans <- acc.k_scans + scans;
    if n > 0 then acc.k_emitted <- acc.k_emitted + t.out.(n - 1);
    if plan.Plan.p_delta < 0 && Array.length acc.k_order = 0 then
      acc.k_order <- Array.map (fun i -> i.Plan.i_atom) instrs;
    for j = 0 to n - 1 do
      let ins = instrs.(j) in
      let pos = ins.Plan.i_atom in
      let inj = if j = 0 then 1 else t.out.(j - 1) in
      let outj = t.out.(j) in
      acc.k_tuples <- acc.k_tuples + outj;
      if pos >= 0 && pos < Array.length acc.k_in then begin
        acc.k_in.(pos) <- acc.k_in.(pos) + inj;
        acc.k_out.(pos) <- acc.k_out.(pos) + outj;
        if
          (not ins.Plan.i_from_delta)
          && (acc.k_edb.(pos) || plan.Plan.p_delta >= 0)
        then begin
          acc.k_model_in.(pos) <- acc.k_model_in.(pos) + inj;
          acc.k_model_out.(pos) <- acc.k_model_out.(pos) + outj
        end
      end
    done
  end

let record_round run deltas =
  run.u_rounds <- run.u_rounds + 1;
  let marked = Hashtbl.create 8 in
  List.iter
    (fun (pred, n) ->
      if n > 0 then
        match Hashtbl.find_opt run.u_scc_of pred with
        | None -> ()
        | Some c ->
          run.u_scc_derived.(c) <- run.u_scc_derived.(c) + n;
          if not (Hashtbl.mem marked c) then begin
            Hashtbl.add marked c ();
            run.u_scc_rounds.(c) <- run.u_scc_rounds.(c) + 1
          end)
    deltas

(* ------------------------------------------------------------------ *)
(* The accumulated profile                                             *)
(* ------------------------------------------------------------------ *)

(* Rule ids are dense per program ({!Program.make} renumbers), so two
   different programs profiled in one process — e.g. a sliced and an
   unsliced run — can reuse an id. The aggregate therefore keys rules
   by (id, text) and components by their sorted member list; the
   common single-program case degenerates to plain id keying. *)
type rule_agg = {
  g_id : int;
  g_head : Symbol.t;
  g_text : string;
  g_preds : Symbol.t array;
  mutable g_order : int array;
  mutable g_firings : int;
  mutable g_secs : float;
  mutable g_tuples : int;
  mutable g_emitted : int;
  mutable g_derived : int;
  mutable g_probes : int;
  mutable g_hits : int;
  mutable g_scans : int;
  g_in : int array;
  g_out : int array;
  g_model_in : int array;
  g_model_out : int array;
}

type scc_agg = {
  h_ord : int;  (* topological position at first sighting *)
  h_preds : Symbol.t list;
  mutable h_rounds : int;
  mutable h_derived : int;
}

let lock = Mutex.create ()
let agg_rules : (int * string, rule_agg) Hashtbl.t = Hashtbl.create 32
let agg_sccs : (string, scc_agg) Hashtbl.t = Hashtbl.create 32
let agg_runs = ref 0
let agg_rounds = ref 0

let reset () =
  Mutex.lock lock;
  Hashtbl.reset agg_rules;
  Hashtbl.reset agg_sccs;
  agg_runs := 0;
  agg_rounds := 0;
  Mutex.unlock lock

let scc_key preds = String.concat "," (List.map Symbol.name preds)

let run_end run =
  Mutex.lock lock;
  incr agg_runs;
  agg_rounds := !agg_rounds + run.u_rounds;
  Array.iter
    (fun acc ->
      let text = Rule.to_string acc.k_rule in
      let key = (acc.k_rule.Rule.id, text) in
      let g =
        match Hashtbl.find_opt agg_rules key with
        | Some g -> g
        | None ->
          let n = Array.length acc.k_preds in
          let g =
            {
              g_id = acc.k_rule.Rule.id;
              g_head = (Rule.head acc.k_rule).Atom.pred;
              g_text = text;
              g_preds = acc.k_preds;
              g_order = [||];
              g_firings = 0;
              g_secs = 0.0;
              g_tuples = 0;
              g_emitted = 0;
              g_derived = 0;
              g_probes = 0;
              g_hits = 0;
              g_scans = 0;
              g_in = Array.make n 0;
              g_out = Array.make n 0;
              g_model_in = Array.make n 0;
              g_model_out = Array.make n 0;
            }
          in
          Hashtbl.add agg_rules key g;
          g
      in
      if Array.length g.g_order = 0 then g.g_order <- acc.k_order;
      g.g_firings <- g.g_firings + acc.k_firings;
      g.g_secs <- g.g_secs +. acc.k_secs;
      g.g_tuples <- g.g_tuples + acc.k_tuples;
      g.g_emitted <- g.g_emitted + acc.k_emitted;
      g.g_derived <- g.g_derived + acc.k_derived;
      g.g_probes <- g.g_probes + acc.k_probes;
      g.g_hits <- g.g_hits + acc.k_hits;
      g.g_scans <- g.g_scans + acc.k_scans;
      for i = 0 to Array.length acc.k_in - 1 do
        g.g_in.(i) <- g.g_in.(i) + acc.k_in.(i);
        g.g_out.(i) <- g.g_out.(i) + acc.k_out.(i);
        g.g_model_in.(i) <- g.g_model_in.(i) + acc.k_model_in.(i);
        g.g_model_out.(i) <- g.g_model_out.(i) + acc.k_model_out.(i)
      done)
    run.u_rules;
  Array.iteri
    (fun i preds ->
      let key = scc_key preds in
      let h =
        match Hashtbl.find_opt agg_sccs key with
        | Some h -> h
        | None ->
          let h = { h_ord = i; h_preds = preds; h_rounds = 0; h_derived = 0 } in
          Hashtbl.add agg_sccs key h;
          h
      in
      h.h_rounds <- h.h_rounds + run.u_scc_rounds.(i);
      h.h_derived <- h.h_derived + run.u_scc_derived.(i))
    run.u_sccs;
  Mutex.unlock lock

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type atom_stat = {
  a_pos : int;
  a_pred : Symbol.t;
  a_in : int;
  a_out : int;
  a_model_in : int;
  a_model_out : int;
}

type rule_stat = {
  r_id : int;
  r_head : Symbol.t;
  r_text : string;
  r_order : int array;
  r_firings : int;
  r_secs : float;
  r_tuples : int;
  r_emitted : int;
  r_derived : int;
  r_probes : int;
  r_hits : int;
  r_scans : int;
  r_atoms : atom_stat array;
}

type scc_stat = { c_preds : Symbol.t list; c_rounds : int; c_derived : int }

type t = {
  runs : int;
  rounds : int;
  rules : rule_stat list;
  sccs : scc_stat list;
}

let snapshot () =
  Mutex.lock lock;
  let rules =
    Hashtbl.fold
      (fun _ g acc ->
        {
          r_id = g.g_id;
          r_head = g.g_head;
          r_text = g.g_text;
          r_order = Array.copy g.g_order;
          r_firings = g.g_firings;
          r_secs = g.g_secs;
          r_tuples = g.g_tuples;
          r_emitted = g.g_emitted;
          r_derived = g.g_derived;
          r_probes = g.g_probes;
          r_hits = g.g_hits;
          r_scans = g.g_scans;
          r_atoms =
            Array.init (Array.length g.g_preds) (fun i ->
                {
                  a_pos = i;
                  a_pred = g.g_preds.(i);
                  a_in = g.g_in.(i);
                  a_out = g.g_out.(i);
                  a_model_in = g.g_model_in.(i);
                  a_model_out = g.g_model_out.(i);
                });
        }
        :: acc)
      agg_rules []
    |> List.sort (fun a b -> compare (a.r_id, a.r_text) (b.r_id, b.r_text))
  in
  let sccs =
    Hashtbl.fold
      (fun key h acc -> (h.h_ord, key, h) :: acc)
      agg_sccs []
    |> List.sort compare
    |> List.map (fun (_, _, h) ->
           { c_preds = h.h_preds; c_rounds = h.h_rounds; c_derived = h.h_derived })
  in
  let result = { runs = !agg_runs; rounds = !agg_rounds; rules; sccs } in
  Mutex.unlock lock;
  result

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

let schema_version = "whyprov.profile/1"

let num_i n = Json.Num (float_of_int n)

let to_json ?(times = true) t =
  let atom_json a =
    Json.Obj
      [
        ("pos", num_i a.a_pos);
        ("pred", Json.Str (Symbol.name a.a_pred));
        ("in", num_i a.a_in);
        ("out", num_i a.a_out);
        ("model_in", num_i a.a_model_in);
        ("model_out", num_i a.a_model_out);
      ]
  in
  let rule_json r =
    Json.Obj
      ([
         ("id", num_i r.r_id);
         ("head", Json.Str (Symbol.name r.r_head));
         ("rule", Json.Str r.r_text);
         ("order", Json.List (Array.to_list (Array.map num_i r.r_order)));
         ("firings", num_i r.r_firings);
       ]
      @ (if times then [ ("time_s", Json.Num r.r_secs) ] else [])
      @ [
          ("tuples", num_i r.r_tuples);
          ("emitted", num_i r.r_emitted);
          ("derived", num_i r.r_derived);
          ("duplicates", num_i (r.r_emitted - r.r_derived));
          ("probes", num_i r.r_probes);
          ("hits", num_i r.r_hits);
          ("scans", num_i r.r_scans);
          ("atoms", Json.List (Array.to_list (Array.map atom_json r.r_atoms)));
        ])
  in
  let scc_json c =
    Json.Obj
      [
        ( "preds",
          Json.List (List.map (fun p -> Json.Str (Symbol.name p)) c.c_preds) );
        ("rounds", num_i c.c_rounds);
        ("derived", num_i c.c_derived);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("runs", num_i t.runs);
      ("rounds", num_i t.rounds);
      ("sccs", Json.List (List.map scc_json t.sccs));
      ("rules", Json.List (List.map rule_json t.rules));
    ]

let pp_secs ppf s =
  if s < 0.001 then Format.fprintf ppf "%.0fµs" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.1fms" (s *. 1e3)
  else Format.fprintf ppf "%.2fs" s

let fanout out_ inn = if inn = 0 then 0.0 else float_of_int out_ /. float_of_int inn

let pp ?(top = 5) ppf t =
  let total_secs = List.fold_left (fun a r -> a +. r.r_secs) 0.0 t.rules in
  Format.fprintf ppf "profile: %d run(s), %d round(s), %d rule(s), %a rule time@."
    t.runs t.rounds (List.length t.rules) pp_secs total_secs;
  let hot =
    List.sort
      (fun a b ->
        compare (b.r_secs, b.r_tuples, a.r_id) (a.r_secs, a.r_tuples, b.r_id))
      t.rules
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (match take top hot with
  | [] -> ()
  | hot ->
    Format.fprintf ppf "hot rules (by wall time):@.";
    List.iter
      (fun r ->
        Format.fprintf ppf "  rule %-3d %a  %d tuples, %d derived — %s@." r.r_id
          pp_secs r.r_secs r.r_tuples r.r_derived r.r_text)
      hot);
  (* The tree: SCC -> rule -> atom. Rules hang off the component that
     contains their head predicate. *)
  List.iteri
    (fun ci c ->
      let rules =
        List.filter
          (fun r -> List.exists (Symbol.equal r.r_head) c.c_preds)
          t.rules
      in
      if rules <> [] || c.c_derived > 0 then begin
        Format.fprintf ppf "scc %d {%s}: %d round(s), %d derived@." ci
          (String.concat ", " (List.map Symbol.name c.c_preds))
          c.c_rounds c.c_derived;
        List.iter
          (fun r ->
            Format.fprintf ppf "  rule %d: %s@." r.r_id r.r_text;
            let dup = r.r_emitted - r.r_derived in
            let dup_pct =
              if r.r_emitted = 0 then 0.0
              else 100.0 *. float_of_int dup /. float_of_int r.r_emitted
            in
            let hit_pct =
              if r.r_probes = 0 then 100.0
              else 100.0 *. float_of_int r.r_hits /. float_of_int r.r_probes
            in
            Format.fprintf ppf
              "    fired %d×, %a, %d tuples, %d emitted, %d derived (%.1f%% \
               dup), %d probes (%.1f%% hit), %d scans@."
              r.r_firings pp_secs r.r_secs r.r_tuples r.r_emitted r.r_derived
              dup_pct r.r_probes hit_pct r.r_scans;
            Array.iter
              (fun a ->
                Format.fprintf ppf
                  "    atom[%d] %s: in %d, out %d, fan-out %.2f@." a.a_pos
                  (Symbol.name a.a_pred) a.a_in a.a_out (fanout a.a_out a.a_in))
              r.r_atoms)
          rules
      end)
    t.sccs

(* ------------------------------------------------------------------ *)
(* Estimate-vs-actual audit                                            *)
(* ------------------------------------------------------------------ *)

type pred_audit = {
  pa_pred : Symbol.t;
  pa_est : float;
  pa_actual : float;
  pa_qerr : float;
}

type step_audit = {
  sa_rule : int;
  sa_step : int;
  sa_pos : int;
  sa_pred : Symbol.t;
  sa_est : float;
  sa_actual : float;
  sa_qerr : float;
}

type flip = {
  f_rule : int;
  f_est_order : int array;
  f_actual_order : int array;
}

type audit = {
  a_preds : pred_audit list;
  a_steps : step_audit list;
  a_flips : flip list;
}

let qerr est act =
  let est = Float.max 1e-9 est and act = Float.max 1e-9 act in
  Float.max (est /. act) (act /. est)

let by_qerr_desc q1 n1 q2 n2 =
  match compare q2 q1 with 0 -> compare n1 n2 | c -> c

let audit ~est ~actual program t =
  let preds =
    Stats.fold
      (fun p (a : Stats.pred) acc ->
        let e = match Stats.rows est p with Some r -> r | None -> 0.0 in
        { pa_pred = p; pa_est = e; pa_actual = a.Stats.rows; pa_qerr = qerr e a.Stats.rows }
        :: acc)
      actual []
    |> List.sort (fun a b ->
           by_qerr_desc a.pa_qerr (Symbol.name a.pa_pred) b.pa_qerr
             (Symbol.name b.pa_pred))
  in
  let nrules = List.length (Program.rules program) in
  let in_program r =
    r.r_id >= 0 && r.r_id < nrules
    && String.equal (Rule.to_string (Program.rule program r.r_id)) r.r_text
  in
  let steps = ref [] in
  List.iter
    (fun r ->
      if in_program r then begin
        let rule = Program.rule program r.r_id in
        let body = Array.of_list (Rule.body rule) in
        let bound : (Symbol.t, unit) Hashtbl.t = Hashtbl.create 8 in
        Array.iteri
          (fun step pos ->
            let a = body.(pos) in
            let e = Plan.cost_estimate est bound a in
            let st = r.r_atoms.(pos) in
            if st.a_model_in > 0 then begin
              let act = fanout st.a_model_out st.a_model_in in
              steps :=
                {
                  sa_rule = r.r_id;
                  sa_step = step;
                  sa_pos = pos;
                  sa_pred = a.Atom.pred;
                  sa_est = e;
                  sa_actual = act;
                  sa_qerr = qerr e act;
                }
                :: !steps
            end;
            List.iter (fun v -> Hashtbl.replace bound v ()) (Atom.vars a))
          r.r_order
      end)
    t.rules;
  let steps =
    List.sort
      (fun a b ->
        by_qerr_desc a.sa_qerr (a.sa_rule, a.sa_step) b.sa_qerr
          (b.sa_rule, b.sa_step))
      !steps
  in
  let flips =
    List.filter_map
      (fun rule ->
        let order stats =
          Array.map
            (fun i -> i.Plan.i_atom)
            (Plan.compile ~stats program rule ~delta:(-1)).Plan.p_instrs
        in
        let eo = order est and ao = order actual in
        if eo = ao then None
        else Some { f_rule = rule.Rule.id; f_est_order = eo; f_actual_order = ao })
      (Program.rules program)
  in
  { a_preds = preds; a_steps = steps; a_flips = flips }

let audit_to_json a =
  let pred_json p =
    Json.Obj
      [
        ("pred", Json.Str (Symbol.name p.pa_pred));
        ("est_rows", Json.Num p.pa_est);
        ("actual_rows", Json.Num p.pa_actual);
        ("q_error", Json.Num p.pa_qerr);
      ]
  in
  let step_json s =
    Json.Obj
      [
        ("rule", num_i s.sa_rule);
        ("step", num_i s.sa_step);
        ("pos", num_i s.sa_pos);
        ("pred", Json.Str (Symbol.name s.sa_pred));
        ("est_fanout", Json.Num s.sa_est);
        ("actual_fanout", Json.Num s.sa_actual);
        ("q_error", Json.Num s.sa_qerr);
      ]
  in
  let flip_json f =
    Json.Obj
      [
        ("rule", num_i f.f_rule);
        ("est_order", Json.List (Array.to_list (Array.map num_i f.f_est_order)));
        ( "actual_order",
          Json.List (Array.to_list (Array.map num_i f.f_actual_order)) );
      ]
  in
  Json.Obj
    [
      ("preds", Json.List (List.map pred_json a.a_preds));
      ("steps", Json.List (List.map step_json a.a_steps));
      ("flips", Json.List (List.map flip_json a.a_flips));
    ]

let pp_order ppf order =
  Format.fprintf ppf "[%s]"
    (String.concat " " (Array.to_list (Array.map string_of_int order)))

let pp_audit ppf a =
  Format.fprintf ppf
    "plan audit (q-error = max(est/actual, actual/est)):@.";
  Format.fprintf ppf "  predicate cardinalities:@.";
  List.iter
    (fun p ->
      Format.fprintf ppf "    %-16s est %10.1f  actual %10.0f  q-error %.2f@."
        (Symbol.name p.pa_pred) p.pa_est p.pa_actual p.pa_qerr)
    a.a_preds;
  (match a.a_steps with
  | [] -> ()
  | steps ->
    Format.fprintf ppf "  join steps (worst first, model-side fan-out):@.";
    List.iter
      (fun s ->
        Format.fprintf ppf
          "    rule %d step %d atom[%d] %s: est %10.2f  actual %10.2f  \
           q-error %.2f@."
          s.sa_rule s.sa_step s.sa_pos (Symbol.name s.sa_pred) s.sa_est
          s.sa_actual s.sa_qerr)
      steps);
  match a.a_flips with
  | [] ->
    Format.fprintf ppf
      "  plan flips: none — no mis-estimate changes the cost-based join \
       order@."
  | flips ->
    List.iter
      (fun f ->
        Format.fprintf ppf
          "  plan flip: rule %d cost order %a becomes %a under actual \
           statistics@."
          f.f_rule pp_order f.f_est_order pp_order f.f_actual_order)
      flips
