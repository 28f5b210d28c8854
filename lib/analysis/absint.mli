(** Abstract interpretation of Datalog programs over an extensional
    database: three monotone analyses computed in one pass and consumed
    downstream by the cost-based join planner ({!Datalog.Plan}), the
    why-provenance pipeline, and the [whyprov analyze] report.

    {ol
    {- {b Binding/constant analysis.} Every predicate argument gets a
       value in the lattice [Bot ⊑ Consts(S) ⊑ Top] (|S| ≤
       {!max_consts}): [Bot] means "no fact reaches this position",
       [Consts S] "only constants from S", [Top] "anything". EDB
       positions are seeded from the database, IDB positions from a
       least fixpoint over the rules. A singleton [Consts] is a
       {e grounded} argument.}
    {- {b Cardinality/selectivity estimation.} Per-predicate row counts
       and per-column distinct-value bounds ({!Datalog.Stats.t}), exact
       on the EDB and propagated through rule bodies with System-R
       style join estimates, SCC by SCC in dependency order; recursive
       components are iterated a few rounds and then widened to the
       active-domain cap, so termination never depends on the
       estimates converging.}
    {- {b Query-relevance slicing.} Rules that provably cannot
       contribute any derivation of the query predicate are dropped,
       each with a machine-checkable {!reason}; {!certify} re-validates
       a slice against the reference structural engine.}}

    All three are over-approximations: they may only make the planner
    slower or the slice larger than optimal, never change a model, a
    rank, or a why-provenance set. The differential tests and the
    [whyfuzz] harness enforce exactly that. *)

open Datalog

(** {1 The constant lattice} *)

type value =
  | Bot                       (** unreachable position *)
  | Consts of Symbol.t list   (** at most {!max_consts} constants, sorted *)
  | Top                       (** unbounded *)

val max_consts : int
(** Width bound of [Consts]; joins exceeding it widen to [Top]. *)

val join : value -> value -> value
val meet : value -> value -> value
val pp_value : Format.formatter -> value -> unit

(** {1 Analysis} *)

type t
(** The result of {!analyze}: classification, per-argument constant
    values, derivability, and cardinality estimates. *)

val analyze : Program.t -> Database.t -> t
(** Runs all analyses. Cost is a small number of passes over the rules
    plus one pass over the database; safe to run per query. *)

val constants : t -> Symbol.t -> value array option
(** Per-argument constant values of a schema predicate. *)

val grounded : t -> (Symbol.t * int * Symbol.t) list
(** All grounded arguments [(pred, column, constant)]: positions that
    hold a single known constant in every model fact. Schema order. *)

val derivable : t -> Symbol.t -> bool
(** [false] means the predicate is {e provably empty} in the least
    model ([true] is an over-approximation: it may still be empty). *)

val stats : t -> Stats.t
(** Cardinality estimates for every schema predicate, suitable for
    [Eval.seminaive ~stats] / [Plan.compile ~stats]. Estimates under
    the usual independence assumptions — exact on stored facts, but not
    guaranteed bounds on derived ones; they only steer join ordering,
    never semantics. *)

val adornments : t -> query:Symbol.t -> (Symbol.t * string) list
(** Adorned binding patterns reachable from an all-bound query, with
    left-to-right sideways information passing: [(pred, "bfb...")]
    pairs, ['b'] bound / ['f'] free, sorted. Intensional predicates
    only; empty if [query] is not intensional. *)

val pp : Format.formatter -> t -> unit
(** Deterministic multi-line report (constants, cardinalities, provably
    empty predicates), as printed by [whyprov analyze]. Intensional
    predicates are marked with [*]. *)

val json_schema_version : string
(** ["whyprov.analyze/1"], the ["schema"] field of {!to_json}. *)

val to_json : ?query:Symbol.t -> t -> Util.Json.t
(** The versioned machine-readable report emitted by
    [whyprov analyze --format json] (docs/ANALYSIS.md): per-predicate
    constant values, derivability and cardinality estimates, the
    grounded arguments, and — with [query] — the adorned binding
    patterns and the query-relevance slice. Deterministic (schema
    order, sorted lists). *)

(** {1 Query-relevance slicing} *)

type reason =
  | Unreachable
      (** head predicate not backward-reachable from the query through
          live rules *)
  | Underivable of Symbol.t
      (** the named body predicate is provably empty *)
  | Constant_conflict
      (** the constant analysis refutes the body (e.g. a constant that
          cannot occur at that position) *)

val reason_to_string : reason -> string

type slice = {
  s_query : Symbol.t;
  s_original : Program.t;
  s_program : Program.t;  (** the kept rules, re-numbered *)
  s_kept : Rule.t list;
  s_dropped : (Rule.t * reason) list;
  s_relevant : Symbol.t list;     (** cone of influence, sorted *)
  s_edb_dropped : Symbol.t list;  (** EDB predicates outside the cone *)
}

val slice : t -> query:Symbol.t -> slice
(** Drops rules that provably contribute to no derivation of [query].
    Rules whose head {e is} [query] are always kept, so the sliced
    program still defines the query predicate; likewise one dead rule
    is retained for any cone predicate that would otherwise lose its
    intensional status (stored facts of an extensional predicate are
    why-provenance leaves, so the flip would change why-sets even
    though such a rule never fires). Soundness contract: the
    model restricted to [s_relevant], the ranks of those facts, and the
    why-provenance of any [query] fact are identical under
    [s_program]+{!relevant_db} and the original program+database. *)

val relevant_db : slice -> Database.t -> Database.t
(** The database restricted to [s_relevant] predicates — the facts the
    sliced evaluation may consult. *)

val certify : slice -> Database.t -> bool
(** Re-establishes every drop reason and the model/rank equality over
    [s_relevant] using the reference structural engine
    ({!Datalog.Eval.seminaive_structural}). [true] means the slice is
    proven sound for this database; the fuzz harness calls this on
    every generated instance. *)

val pp_slice : Format.formatter -> slice -> unit
(** Deterministic report: counts, dropped rules with reasons, relevant
    predicates. *)
