(** The interned flat-tuple semi-naive engine.

    This is the evaluation core behind {!Eval.seminaive}: rules are
    compiled once into flat join plans ({!Plan}), facts live in
    per-predicate flat relations ({!Flatrel}), substitutions are plain
    [int array] register files, and every semi-naive round fires its
    (rule, delta-position) tasks either sequentially or across a pool
    of OCaml 5 domains with a deterministic, task-ordered delta merge —
    the model and the derivation ranks are identical whatever [jobs]
    is. See [docs/ARCHITECTURE.md] ("The flat engine") for the design
    and its invariants.

    Rounds are {e global} (round-synchronous over all rules), not
    stratum-local: for positive Datalog stratification is only a
    scheduling optimization, and global rounds are what make the
    recorded ranks equal to the paper's [min-dag-depth] (Proposition
    28). Strata are still computed — they order the task list and are
    exposed for diagnostics. *)

val strata : Program.t -> Symbol.t list list
(** The strongly connected components of the program's predicate
    graph in (a) topological order of the condensation — stratum 0
    first. Every schema predicate appears in exactly one stratum. *)

val seminaive :
  ?jobs:int ->
  ?stats:Stats.t ->
  Program.t ->
  Database.t ->
  Database.t * (Fact.t -> int option)
(** [seminaive program db] computes the model [Σ(D)] — same contract
    as {!Eval.seminaive}, which delegates here — together with its rank
    lookup: [rank f] is the first-derivation round of the model fact
    [f] (0 for database facts), [None] for a fact outside the model.
    The model is not a copy: the fixpoint's flat relations become its
    relations ({!Database.of_relations}), column indexes included, and
    facts of database predicates no rule mentions get relations of
    their own. The lookup reads a fact's row id against the round
    boundaries the fixpoint recorded; it answers [None] for facts
    added to the model afterwards.

    Model iteration order, per predicate: the database's facts in
    [Database.to_list db] order, then the derived rows in the order
    the fixpoint appended them (round by round). Closure and encoding
    order downstream depend on it.

    [jobs] (default 1) is the number of domains evaluating a round's
    rule tasks; results do not depend on it.
    [stats] switches {!Plan.compile} to cost-based join ordering for
    every compiled task. The model and the ranks are identical in either
    plan mode — each round derives a join-order-independent {e set} of
    rows from the round-start model and the deltas, and deduplication
    keeps exactly that set — but the {e insertion order} of a round's
    rows may permute within each (round, predicate) segment, because a
    task emits bindings in join-enumeration order. (This is unlike
    [jobs], which is byte-identical.) Downstream consumers that need
    byte-stable output across plan modes must compare sorted.
    Interning is frozen for the duration of the fixpoint
    ({!Symbol.set_frozen}): evaluation only rearranges already-interned
    symbols, and worker domains must never touch the intern table.

    When {!Profile.is_enabled} is true at call time, every task of the
    run additionally records per-rule / per-atom / per-SCC attribution
    into the accumulated profile (see {!Profile}); the counts are
    deterministic across [jobs] because workers only fill task-local
    buffers and the coordinator folds them in task order after each
    round's merge.
    @raise Invalid_argument if a predicate has one arity in the program
    and another in [db]. *)
