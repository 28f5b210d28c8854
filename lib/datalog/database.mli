(** Fact stores: one flat relation ({!Flatrel}) per predicate.

    A [Database.t] is used both for extensional databases and for the
    materialized models produced by evaluation. The flat engine hands
    its relations over as the model ({!of_relations}), so the model is
    stored once, and the column indexes the fixpoint built serve the
    backward joins of {!Eval.derivations} too. Facts are boxed as
    {!Fact.t} only when they are handed out. Lookup by a pattern of
    bound argument positions is the primitive the join engine builds
    on.

    Every predicate has one arity per store: {!add} rejects a fact
    whose arity differs from the facts already stored for its
    predicate. *)

type t

val create : unit -> t
(** An empty database. *)

val of_list : Fact.t list -> t
(** Database of the listed facts (duplicates collapse).
    @raise Invalid_argument as {!add} does. *)

val of_set : Fact.Set.t -> t
(** Database of the set's facts.
    @raise Invalid_argument as {!add} does. *)

val of_relations : (Symbol.t * Flatrel.t) list -> t
(** A database over the given relations, one per predicate, shared,
    not copied: later {!add}s write into them. The engine's way of
    handing its fixpoint over as the model. *)

val relation : t -> Symbol.t -> Flatrel.t option
(** The relation holding one predicate's facts, if any was created.
    Callers must not mutate it. *)

val add : t -> Fact.t -> bool
(** [add db f] inserts [f]; returns [true] iff [f] was not already present.
    @raise Invalid_argument if [db] already holds facts of [f]'s
    predicate with a different arity. *)

val mem : t -> Fact.t -> bool
(** Membership: one row-table lookup on the fact's arguments. *)

val size : t -> int
(** Total number of facts. *)

val preds : t -> Symbol.t list
(** Predicates with at least one fact, sorted. *)

val count_pred : t -> Symbol.t -> int
(** Number of facts of one predicate. *)

val iter : (Fact.t -> unit) -> t -> unit
(** Iterates predicates in symbol order, each predicate's facts in
    insertion order. This order is observable downstream (encodings,
    closures), so it is part of the interface; for models it is the
    order {!Engine.seminaive} documents. *)

val iter_pred : t -> Symbol.t -> (Fact.t -> unit) -> unit
(** One predicate's facts, in insertion order. *)

val estimate : t -> Symbol.t -> (int * Symbol.t) list -> int
(** Upper bound on the number of facts [iter_matching] would visit:
    the smallest column-index bucket among the bound positions, or the
    predicate's fact count when nothing is bound. Used by the greedy
    join-ordering heuristic. *)

val iter_matching : t -> Symbol.t -> (int * Symbol.t) list -> (Fact.t -> unit) -> unit
(** [iter_matching db p bound f] calls [f] on every fact of predicate [p]
    whose argument at position [i] equals [c] for each [(i, c)] in
    [bound], in insertion order. When every position is bound this is
    one row-table lookup; otherwise it scans the smallest column-index
    bucket among the bound positions and filters on the rest. Column
    indexes are built on first use and must be built on one domain at
    a time. *)

val to_list : t -> Fact.t list
(** All facts, in {e reverse} {!iter} order. *)

val to_set : t -> Fact.Set.t
(** All facts as a set. *)

val domain : t -> Symbol.t list
(** Active domain: all constants occurring in the database, sorted. *)

val copy : t -> t
(** An independent database with the same facts. *)

val pp : Format.formatter -> t -> unit
(** One fact per line, sorted. *)
