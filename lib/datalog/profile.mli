(** Rule-level execution profiler for the flat engine.

    The metrics registry ({!Util.Metrics}) answers "how much work did
    the fixpoint do"; this module answers "{e which rule} did it".
    While enabled, every (rule, delta-position) task the engine runs
    contributes — keyed by its compiled rule id into dense arrays — its
    wall time, its firing, the tuples each body atom matched, the head
    rows it emitted and how many survived deduplication, and its index
    probe/hit and scan counts; every semi-naive round contributes the
    per-SCC delta sizes, so the profile can report rounds and derived
    facts per strongly connected component.

    The discipline matches {!Util.Tracing}: recording is off by
    default, and every instrumentation site in the engine costs one
    atomic-flag check (checked {e once per fixpoint}, not per tuple)
    until {!set_enabled} is called — the [profile:*] micro-benchmarks
    in [bench/micro.ml] hold the disabled overhead under 2%. Collection
    is aggregated {e deterministically} across the engine's domain
    pool: workers only fill task-local buffers, and the coordinator
    folds them in task order after each round, so every count in a
    profile is identical whatever [jobs] is (wall times are the one
    exception — they measure real concurrency and are excluded from
    [to_json ~times:false], the form the determinism tests compare).

    Reconciliation contract (enforced by [test/test_profile.ml] on the
    five paper workloads): the per-rule [firings] sum to the global
    [eval.rule_firings] counter and the per-rule [derived] sum to
    [eval.facts_derived], exactly.

    The estimate-vs-actual {e audit} ({!audit}) closes the loop with
    the cost-based planner (docs/ABSINT.md): it joins the profile's
    actual per-join-step fan-outs and the model's actual cardinalities
    against the {!Stats.t} estimates the planner consumed, computes the
    q-error [max(est/act, act/est)] of each, and flags the rules whose
    mis-estimates were large enough to flip the [--plan=cost] join
    order. Schemas and the reading guide are in
    [docs/OBSERVABILITY.md] ("Rule-level profiles"). *)

(** {1 Enablement} *)

val set_enabled : bool -> unit
(** Off by default. Toggling while a fixpoint is running is not
    supported: the engine samples the flag once per {!Eval.seminaive}
    call. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Drops every accumulated rule, SCC and round record. *)

(** {1 Engine-side collection}

    Used by {!Engine.seminaive} only; exposed so the engine can stay
    free of profiling bookkeeping when disabled. A {!run} is owned by
    the coordinating domain; {!task} buffers are written by exactly one
    worker while a round runs and read by the coordinator after the
    round's merge. *)

type task = {
  out : int array;
      (** tuples matched per plan instruction (join-order position) *)
  mutable new_rows : int;
      (** head rows accepted into the model (post-deduplication) *)
  mutable secs : float;  (** wall time spent running the task *)
}

val task_create : int -> task
(** [task_create n] is a zeroed buffer for a plan of [n] instructions. *)

val now_s : unit -> float
(** Wall clock, seconds. *)

type run

val run_begin : Program.t -> Symbol.t list list -> run
(** [run_begin program sccs] starts collection for one fixpoint, with
    [sccs] the predicate components of {!Engine.strata}. Dense per-rule
    arrays are keyed by {!Rule.id} (contiguous under {!Program.make}). *)

val record_task :
  run -> Plan.t -> task -> probes:int -> hits:int -> scans:int -> unit
(** Folds one finished task into the run — called by the coordinator in
    task order, after the round's merge has settled [task.new_rows]. *)

val record_round : run -> (Symbol.t * int) list -> unit
(** [record_round run deltas] closes one round; [deltas] are the
    per-predicate delta sizes of the round's merge (any order — the
    per-SCC aggregation is order-independent). *)

val run_end : run -> unit
(** Folds the run into the global accumulated profile (thread-safe). *)

(** {1 Snapshots} *)

type atom_stat = {
  a_pos : int;  (** position of the atom in the rule body *)
  a_pred : Symbol.t;
  a_in : int;  (** bindings that reached this atom, all tasks *)
  a_out : int;  (** tuples it matched, all tasks *)
  a_model_in : int;
      (** bindings reaching {e comparable} model-side occurrences — the
          denominator of the measured fan-out the audit holds against
          the planner's per-binding estimate. Extensional atoms count in
          every task; intensional atoms only in delta tasks, because a
          full (round-1) task joins intensional relations while they are
          still empty. Delta-scan occurrences never count. *)
  a_model_out : int;  (** tuples matched by those occurrences *)
}

type rule_stat = {
  r_id : int;
  r_head : Symbol.t;
  r_text : string;  (** the rule, pretty-printed *)
  r_order : int array;
      (** the executed full-evaluation join order, as body positions *)
  r_firings : int;  (** tasks run (one per round per delta position) *)
  r_secs : float;  (** summed task wall time *)
  r_tuples : int;  (** total tuples matched across all atoms *)
  r_emitted : int;  (** head emissions before deduplication *)
  r_derived : int;  (** head rows that entered the model *)
  r_probes : int;
  r_hits : int;
  r_scans : int;
  r_atoms : atom_stat array;  (** indexed by body position *)
}

type scc_stat = {
  c_preds : Symbol.t list;  (** the component, sorted *)
  c_rounds : int;  (** rounds in which the component derived facts *)
  c_derived : int;  (** facts derived into the component *)
}

type t = {
  runs : int;
  rounds : int;
  rules : rule_stat list;  (** by rule id (then text, across programs) *)
  sccs : scc_stat list;  (** topological order of first sighting *)
}

val snapshot : unit -> t
(** A copy of the accumulated profile; {!reset} does not affect
    snapshots already taken. *)

val schema_version : string
(** ["whyprov.profile/1"], the ["schema"] field of {!to_json}. *)

val to_json : ?times:bool -> t -> Util.Json.t
(** The versioned JSON document (docs/OBSERVABILITY.md). With
    [~times:false] the [time_s] fields are omitted — every remaining
    field is deterministic and independent of [jobs]. *)

val pp : ?top:int -> Format.formatter -> t -> unit
(** The human report: the [top] (default 5) hottest rules by wall
    time, then the SCC → rule → atom tree. *)

(** {1 Estimate-vs-actual audit} *)

type pred_audit = {
  pa_pred : Symbol.t;
  pa_est : float;  (** planner's row estimate (0 if the predicate was unknown) *)
  pa_actual : float;  (** rows in the materialized model *)
  pa_qerr : float;
}

type step_audit = {
  sa_rule : int;
  sa_step : int;  (** position in the executed join order *)
  sa_pos : int;  (** body position of the atom *)
  sa_pred : Symbol.t;
  sa_est : float;  (** estimated per-binding fan-out ({!Plan.cost_estimate}) *)
  sa_actual : float;  (** measured model-side fan-out, [a_model_out/a_model_in] *)
  sa_qerr : float;
}

type flip = {
  f_rule : int;
  f_est_order : int array;  (** cost-based join order under the estimates *)
  f_actual_order : int array;  (** …under the measured cardinalities *)
}

type audit = {
  a_preds : pred_audit list;  (** worst q-error first *)
  a_steps : step_audit list;  (** worst q-error first *)
  a_flips : flip list;  (** rules whose cost-based order would change *)
}

val audit : est:Stats.t -> actual:Stats.t -> Program.t -> t -> audit
(** [audit ~est ~actual program profile] compares the planner's
    estimates [est] (typically [Absint.stats]) against reality:
    [actual] (typically {!Stats.of_database} of the materialized model)
    for per-predicate cardinalities, and the profile's model-side
    fan-outs for per-join-step selectivities, replaying
    {!Plan.cost_estimate} along each rule's executed join order. A
    {!flip} records that compiling the rule with [actual] instead of
    [est] yields a different cost-based join order — the mis-estimate
    was large enough to matter, not merely large. Profile entries that
    do not correspond to a rule of [program] (stale ids from another
    program) are skipped. *)

val audit_to_json : audit -> Util.Json.t
val pp_audit : Format.formatter -> audit -> unit
