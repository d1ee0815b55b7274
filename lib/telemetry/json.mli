(** Minimal JSON for the project's own wire formats.

    The image has no json library, so everything that emits JSON
    ([bap_tables --stats-json], the JSONL trace sink, metrics snapshots,
    the lint baseline) hand-writes it, and everything that reads it back
    ([bap_gate], [bap_trace], [bap_lint]) parses with this module. The parser covers exactly the
    subset those emitters produce: objects, arrays, strings with the
    common escapes (newline, tab, carriage return, quote, backslash,
    slash) and the [\uXXXX] ones {!escape} writes (any code point
    outside the surrogate range, decoded to UTF-8), numbers, booleans,
    null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse of string
(** Raised by {!parse} with a human-readable reason and byte offset. *)

val max_depth : int
(** Arrays and objects nested deeper than this are rejected. *)

val parse : string -> t
(** Parse one complete JSON value; trailing garbage is an error, and so
    is nesting deeper than {!max_depth}. *)

val member : string -> t -> t option
(** [member k j] is the field [k] of object [j], if any. *)

val to_int : t option -> int option
val to_float : t option -> float option
val to_bool : t option -> bool option
val to_string : t option -> string option
val to_list : t option -> t list option

val escape : string -> string
(** Escape a string for embedding between double quotes in JSON. *)
