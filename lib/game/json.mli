(** Minimal JSON values, printer and parser.

    The certificate store, the CLI's [--json] flags and the bench
    harness all need a stable machine-readable encoding, and the
    dependency set deliberately excludes yojson — so this is the one
    JSON implementation everything shares.  Floats are printed with the
    shortest decimal representation that round-trips the IEEE double
    exactly, so a value journaled to disk and parsed back is
    bit-identical — the property the resumable sweeps rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no trailing newline).  Object fields
    print in the order given.
    @raise Invalid_argument on a non-finite {!Float}: bare [nan]/[inf]
    tokens are invalid JSON, and the historical fallback of printing
    [null] silently dropped data (ρ is legitimately infinite for a
    disconnected graph).  Encode non-finite values with {!number}. *)

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed).  Numbers
    without [.], [e] or [E] parse as {!Int} when they fit, {!Float}
    otherwise.  [\uXXXX] escapes (exactly four hex digits) decode to
    UTF-8 bytes; a UTF-16 surrogate pair decodes to one 4-byte sequence,
    and a lone surrogate is an error. *)

val float_repr : float -> string
(** The float rendering {!to_string} uses: the shortest of [%.15g],
    [%.16g], [%.17g] that parses back to the same bits (integral values
    print as ["1.0"]-style so they stay floats on re-parse).  Non-finite
    values — handled before the repr search, which could never
    round-trip [nan] — print as ["nan"], ["inf"], ["-inf"]. *)

val number : float -> t
(** Total float embedding: finite values become {!Float}, non-finite
    ones the strings ["nan"] / ["inf"] / ["-inf"] (the certificate
    store's encoding).  Use this for any field that may carry ±∞ or nan
    — {!to_string} rejects non-finite {!Float}s. *)

val as_number : t -> float option
(** Inverse of {!number}: accepts {!Float}, {!Int}, and the three
    non-finite strings. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value bound to [k], if any; [None]
    on non-objects. *)

val as_int : t -> int option
(** [Int n] gives [Some n]; an integral [Float] is accepted too. *)

val as_float : t -> float option
(** [Float x] or [Int n] (as [float_of_int n]). *)

val as_string : t -> string option
val as_list : t -> t list option
