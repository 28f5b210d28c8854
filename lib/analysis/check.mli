(** The static analyzer behind [whyprov check].

    Two stages. Stage 1 works on the raw parse ({!Parser.raw_clause}) and
    reports the conditions under which program construction would fail,
    as positioned diagnostics instead of exceptions:

    - [WP000] (error) — syntax error (from {!Parser.Error})
    - [WP001] (error) — unsafe rule: head variable not bound by the body
    - [WP002] (error) — bodyless clause with variables (non-ground fact)
    - [WP003] (error) — predicate used with inconsistent arities
    - [WP004] (error) — fact asserts an intensional predicate
    - [WP005] (error) — query predicate not defined by any rule

    Stage 2 runs only when stage 1 found no errors, on the assembled
    {!Program.t}:

    - [WP101] (warning) — fact predicate unreachable from the query
    - [WP102] (warning) — underivable predicate (an atom that can never
      match given the facts in the file)
    - [WP103] (warning) — rule unreachable from the query predicate
    - [WP104] (warning) — duplicate rule (identical up to renaming)
    - [WP105] (warning) — rule subsumed by a more general rule
    - [WP106] (warning) — cross-product body (atoms sharing no variable)
    - [WP107] (warning) — named variable used only once
    - [WP201] (info) — recursive SCC, with a predicate cycle witness

    The full contract (codes, severities, JSON schema, exit codes) is
    documented in [docs/ANALYSIS.md]. *)

open Datalog

type result = {
  diagnostics : Diagnostic.t list;  (** sorted by position *)
  errors : int;
  warnings : int;
  infos : int;
  program : Program.t option;      (** [None] when stage 1 errored *)
  facts : Fact.t list;             (** ground bodyless clauses, in order *)
  classification : Classify.t option;
  selection : Selection.t option;
}

val ok : result -> bool
(** No errors (warnings allowed) — the program can be executed. *)

val clean : result -> bool
(** No errors and no warnings ([--deny-warnings] gate). *)

val check_raw : ?query:string -> Parser.raw_clause list -> result
val check_string : ?query:string -> ?file:string -> string -> result
(** Parses and checks; a syntax error becomes a [WP000] diagnostic. *)

val check_file : ?query:string -> string -> result
(** @raise Sys_error if the file cannot be read. *)

val check_program : ?query:string -> Program.t -> result
(** Stage-2 checks for programs built in code (no raw clause positions,
    no file facts). Used by the bench harness and the workload tests. *)

val pp_human : Format.formatter -> result -> unit
(** Diagnostics, then [class:]/[encoding:] lines when the program was
    built, then a [N error(s), ...] summary line. *)

val json_schema_version : string
(** The ["schema"] field of {!to_json} output: ["whyprov.check/1"]. *)

val to_json : ?file:string -> result -> Util.Json.t
