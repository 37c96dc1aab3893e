(** Strict RFC 8259 well-formedness check, without a JSON library.

    Accepts exactly the documents the grammar allows: no leading zeros,
    no trailing commas, no raw control bytes or unknown escapes in
    strings (OCaml's decimal [\127] is one), and no bare [nan]/[inf]
    tokens.  Nesting deeper than {!max_depth} containers is rejected. *)

val max_depth : int
(** 64. *)

val valid : string -> bool
(** [valid s] is [true] iff [s] is one JSON value, optionally
    surrounded by whitespace. *)
