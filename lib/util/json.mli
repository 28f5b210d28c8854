(** Minimal JSON values: exactly what metric snapshots, trace exports
    and analyzer reports need, plus a parser so that dumps can be
    validated and round-tripped without an external JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

exception Parse_error of string

val parse : string -> t
(** Parses a JSON document. @raise Parse_error on malformed input. *)

val equal : t -> t -> bool
(** Structural equality (object field order is significant). *)

val member : string -> t -> t option
(** [member key (Obj fields)] looks up [key]; [None] on non-objects. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)
