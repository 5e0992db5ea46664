type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* [Printf.sprintf "%.15g"] formats through this primitive with the
   same format string, so calling it directly prints the same bytes
   without the format interpreter (a pin in test_json.ml holds the two
   equal). *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal that parses back to the same IEEE double: the cert
   store's resume guarantee needs journaled floats to be bit-exact.
   Non-finite values must be dispatched before the repr search: the
   [float_of_string s = x] round-trip test is always false for nan
   (nan <> nan), so nan used to fall silently through every %.Ng
   candidate to the widest fallback. *)
let float_repr x =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "inf"
  else if x = Float.neg_infinity then "-inf"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.1f" x
  else begin
    let s = format_float "%.15g" x in
    if float_of_string s = x then s
    else begin
      let s = format_float "%.16g" x in
      if float_of_string s = x then s else format_float "%.17g" x
    end
  end

(* JSON has no non-finite numbers.  Encode them as the three strings the
   certificate store established, so every float round-trips. *)
let number x =
  if Float.is_finite x then Float x else String (float_repr x)

let as_number = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | String "inf" -> Some Float.infinity
  | String "-inf" -> Some Float.neg_infinity
  | String "nan" -> Some Float.nan
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let needs_escape c = c < ' ' || c = '"' || c = '\\'

(* Almost every string this codec writes (keys, graph6, concept names,
   digests) needs no escape; those go out in one [add_string]. *)
let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x ->
        (* Bare nan/inf tokens are invalid JSON, and the historical
           fallback (render as null) silently lost data — PR 3's fuzzing
           caught dropped certificates for ρ = ∞.  Refuse loudly; callers
           with legitimately non-finite values use [number]. *)
        if Float.is_finite x then Buffer.add_string buf (float_repr x)
        else
          invalid_arg
            (Printf.sprintf "Json.to_string: non-finite float %s (use Json.number)"
               (float_repr x))
    | String s ->
        Buffer.add_char buf '"';
        add_escaped buf s;
        Buffer.add_char buf '"'
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            add_escaped buf k;
            Buffer.add_string buf "\":";
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !i)) in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c =
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected %C" c)
  in
  let add_utf8 buf code =
    let cont shift = Buffer.add_char buf (Char.chr (0x80 lor ((code lsr shift) land 0x3F))) in
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      cont 0
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      cont 6;
      cont 0
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      cont 12;
      cont 6;
      cont 0
    end
  in
  (* [!i] is on a [u]: reads exactly four hex digits ([int_of_string]
     would also take [_]) and leaves [!i] on the last one. *)
  let hex4 () =
    if !i + 4 >= n then fail "truncated \\u escape";
    let code = ref 0 in
    for k = 1 to 4 do
      let d =
        match s.[!i + k] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    i := !i + 4;
    !code
  in
  (* A UTF-16 surrogate pair becomes one 4-byte UTF-8 sequence; a
     surrogate without its partner has no UTF-8 encoding at all. *)
  let unicode_escape buf =
    let code = hex4 () in
    let lone () = fail (Printf.sprintf "lone surrogate \\u%04x" code) in
    if code >= 0xDC00 && code <= 0xDFFF then lone ()
    else if code >= 0xD800 && code <= 0xDBFF then begin
      if !i + 2 < n && s.[!i + 1] = '\\' && s.[!i + 2] = 'u' then begin
        i := !i + 2;
        let low = hex4 () in
        if low < 0xDC00 || low > 0xDFFF then lone ();
        add_utf8 buf (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
      end
      else lone ()
    end
    else add_utf8 buf code
  in
  let escaped_string_lit buf =
    let rec go () =
      if !i >= n then fail "unterminated string";
      match s.[!i] with
      | '"' ->
          incr i;
          Buffer.contents buf
      | '\\' ->
          incr i;
          if !i >= n then fail "truncated escape";
          (match s.[!i] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' -> unicode_escape buf
          | _ -> fail "unknown escape");
          incr i;
          go ()
      | c ->
          Buffer.add_char buf c;
          incr i;
          go ()
    in
    go ()
  in
  (* Most literals hold no escape: scan to the closing quote and slice.
     Only a backslash switches to the buffered decoder. *)
  let string_lit () =
    let start = !i in
    while !i < n && s.[!i] <> '"' && s.[!i] <> '\\' do
      incr i
    done;
    if !i >= n then fail "unterminated string";
    if s.[!i] = '"' then begin
      incr i;
      String.sub s start (!i - 1 - start)
    end
    else begin
      let buf = Buffer.create (!i - start + 16) in
      Buffer.add_substring buf s start (!i - start);
      escaped_string_lit buf
    end
  in
  let number () =
    let start = !i in
    let is_float = ref false in
    while
      !i < n
      &&
      match s.[!i] with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          is_float := true;
          true
      | _ -> false
    do
      incr i
    done;
    let str = String.sub s start (!i - start) in
    let as_float () =
      match float_of_string_opt str with
      | Some v -> Float v
      | None -> fail (Printf.sprintf "bad number %S" str)
    in
    (* An integer token too large for [int] still parses, as a float. *)
    if !is_float then as_float ()
    else match int_of_string_opt str with Some v -> Int v | None -> as_float ()
  in
  let literal word v =
    let len = String.length word in
    if !i + len <= n && String.sub s !i len = word then begin
      i := !i + len;
      v
    end
    else fail "bad literal"
  in
  let rec value () =
    skip_ws ();
    if !i >= n then fail "unexpected end of input";
    match s.[!i] with
    | '{' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = '}' then begin
          incr i;
          Obj []
        end
        else Obj (fields [])
    | '[' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = ']' then begin
          incr i;
          List []
        end
        else List (elements [])
    | '"' ->
        incr i;
        String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  and fields acc =
    skip_ws ();
    expect '"';
    let k = string_lit () in
    skip_ws ();
    expect ':';
    let v = value () in
    let acc = (k, v) :: acc in
    skip_ws ();
    if !i < n && s.[!i] = ',' then begin
      incr i;
      fields acc
    end
    else begin
      expect '}';
      List.rev acc
    end
  and elements acc =
    let v = value () in
    let acc = v :: acc in
    skip_ws ();
    if !i < n && s.[!i] = ',' then begin
      incr i;
      elements acc
    end
    else begin
      expect ']';
      List.rev acc
    end
  in
  match value () with
  | v ->
      skip_ws ();
      if !i <> n then Error (Printf.sprintf "trailing input at offset %d" !i)
      else Ok v
  | exception Parse_error msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let as_int = function
  | Int n -> Some n
  | Float x when Float.is_integer x -> Some (int_of_float x)
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> None

let as_float = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | Null | Bool _ | String _ | List _ | Obj _ -> None

let as_string = function
  | String s -> Some s
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> None

let as_list = function
  | List xs -> Some xs
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> None
