open Helpers

let roundtrip name j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check string) name (Json.to_string j) (Json.to_string j')
  | Error e -> Alcotest.failf "%s: reparse failed: %s" name e

(* The float rendering as it was written before [Json.float_repr]
   called the formatting primitive directly: the journal bytes are
   pinned to this. *)
let printf_float_repr x =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "inf"
  else if x = Float.neg_infinity then "-inf"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else begin
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s
    else begin
      let s = Printf.sprintf "%.16g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x
    end
  end

(* Seeded values for the codec round trip.  Strings mix quotes,
   backslashes, every control character and raw non-ASCII bytes;
   floats mix ±0.0, subnormals, huge magnitudes and random bit
   patterns (non-finite ones are left out: [to_string] refuses them). *)
let gen_string rng =
  let specials = [| '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\x00'; '\x1f'; '\x7f' |] in
  String.init (Splitmix.int rng 12) (fun _ ->
      match Splitmix.int rng 4 with
      | 0 -> specials.(Splitmix.int rng (Array.length specials))
      | 1 -> Char.chr (Splitmix.int rng 0x20)
      | 2 -> Char.chr (0x80 + Splitmix.int rng 0x80)
      | _ -> Char.chr (0x20 + Splitmix.int rng 0x5f))

let gen_float rng =
  match Splitmix.int rng 6 with
  | 0 -> Splitmix.pick rng [ 0.; -0.; 4.9e-324; -2.2250738585072009e-308; max_float; 1e300 ]
  | 1 -> Int64.float_of_bits (Int64.logand (Splitmix.next64 rng) 0x000F_FFFF_FFFF_FFFFL)
  | 2 -> float_of_int (Splitmix.int rng 1_000_000 - 500_000) /. 7.
  | 3 -> Float.ldexp (Splitmix.float rng) (Splitmix.int rng 2000 - 1000)
  | _ ->
      let x = Int64.float_of_bits (Splitmix.next64 rng) in
      if Float.is_finite x then x else 1.5

let rec gen_value rng depth =
  match Splitmix.int rng (if depth = 0 then 5 else 7) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Splitmix.bool rng)
  | 2 -> Json.Int (Splitmix.pick rng [ 0; -1; max_int; min_int; Splitmix.int rng 1000 ])
  | 3 -> Json.Float (gen_float rng)
  | 4 -> Json.String (gen_string rng)
  | 5 -> Json.List (List.init (Splitmix.int rng 4) (fun _ -> gen_value rng (depth - 1)))
  | _ ->
      Json.Obj
        (List.init (Splitmix.int rng 4) (fun _ -> (gen_string rng, gen_value rng (depth - 1))))

(* Structural equality with floats compared by their bits.  An
   integral float of magnitude 1e15 or more can print without a [.] or
   an exponent, and then parses back as the {!Json.Int} of the same
   value; [Json.as_number] reads both alike. *)
let rec same a b =
  let bits x = Int64.bits_of_float x in
  match (a, b) with
  | Json.Float x, Json.Float y -> bits x = bits y
  | Json.Float x, Json.Int n -> Float.abs x >= 1e15 && bits x = bits (float_of_int n)
  | Json.List xs, Json.List ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (k', y) -> String.equal k k' && same x y) xs ys
  | _ -> a = b

let parse_error s =
  match Json.of_string s with
  | Error e -> e
  | Ok _ -> Alcotest.failf "accepted %S" s

let suite =
  [
    tc "scalar round trips" (fun () ->
        List.iter
          (fun j -> roundtrip (Json.to_string j) j)
          [
            Json.Null; Json.Bool true; Json.Bool false; Json.Int 0; Json.Int (-42);
            Json.Int max_int; Json.String ""; Json.String "plain";
            Json.Float 0.5; Json.Float (-1.25e300);
          ]);
    tc "string escapes" (fun () ->
        let s = "quote\" backslash\\ newline\n tab\t cr\r ctrl\x01 end" in
        (match Json.of_string (Json.to_string (Json.String s)) with
        | Ok (Json.String s') -> Alcotest.(check string) "escaped" s s'
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "parse: %s" e);
        roundtrip "nested in object" (Json.Obj [ (s, Json.String s) ]));
    tc "floats round trip bit-exactly" (fun () ->
        List.iter
          (fun x ->
            let s = Json.float_repr x in
            Alcotest.(check int64)
              (Printf.sprintf "bits of %s" s)
              (Int64.bits_of_float x)
              (Int64.bits_of_float (float_of_string s)))
          [
            1.0; -0.0; 0.1; 1. /. 3.; Float.pi; 1.1555555555555554; epsilon_float;
            max_float; min_float; 4.9e-324; 1e22; 123456789.123456789;
          ]);
    tc "nested structures" (fun () ->
        roundtrip "nested"
          (Json.Obj
             [
               ("a", Json.List [ Json.Int 1; Json.Null; Json.Obj [] ]);
               ("b", Json.Obj [ ("c", Json.List []) ]);
             ]));
    tc "non-finite floats refuse to serialise bare" (fun () ->
        List.iter
          (fun x ->
            check_raises_invalid (Json.float_repr x) (fun () ->
                Json.to_string (Json.Float x));
            (* ... even nested, where the old null fallback hid them *)
            check_raises_invalid
              (Json.float_repr x ^ " nested")
              (fun () -> Json.to_string (Json.Obj [ ("x", Json.List [ Json.Float x ]) ])))
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    tc "Json.number round-trips non-finite floats" (fun () ->
        List.iter
          (fun x ->
            let j = Json.number x in
            roundtrip (Json.float_repr x) j;
            match Json.of_string (Json.to_string j) with
            | Ok j' -> (
                match Json.as_number j' with
                | Some x' ->
                    Alcotest.(check int64)
                      (Printf.sprintf "bits of %s" (Json.float_repr x))
                      (Int64.bits_of_float x) (Int64.bits_of_float x')
                | None -> Alcotest.failf "%s: as_number failed" (Json.float_repr x))
            | Error e -> Alcotest.failf "reparse: %s" e)
          [ Float.nan; Float.infinity; Float.neg_infinity; 0.; 0.1; -1.25e300; 4.9e-324 ];
        check_true "finite stays a Float" (Json.number 2.5 = Json.Float 2.5);
        check_true "as_number of Int" (Json.as_number (Json.Int 3) = Some 3.);
        check_true "as_number rejects other strings" (Json.as_number (Json.String "x") = None);
        check_true "as_number rejects null" (Json.as_number Json.Null = None));
    tc "float_repr pins" (fun () ->
        List.iter
          (fun (x, expect) ->
            Alcotest.(check string) expect expect (Json.float_repr x))
          [
            (0.1, "0.1"); (1e300, "1e+300"); (-0.0, "-0.0");
            (4.9e-324, "4.94065645841247e-324") (* smallest subnormal *);
            (2.2250738585072014e-308, "2.2250738585072014e-308") (* smallest normal *);
            (Float.nan, "nan"); (Float.infinity, "inf"); (Float.neg_infinity, "-inf");
            (-.Float.nan, "nan");
          ]);
    tc "parser handles unicode escapes" (fun () ->
        match Json.of_string {|"a\u0041\u00e9"|} with
        | Ok (Json.String s) -> Alcotest.(check string) "decoded" "aA\xc3\xa9" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.failf "parse: %s" e);
    tc "\\u escapes take exactly four hex digits" (fun () ->
        (* [int_of_string "0x1_23"] is 0x123: these parsed as U+0123 and
           U+0001. *)
        List.iter
          (fun s -> ignore (parse_error s))
          [ {|"\u1_23"|}; {|"\u00_1"|}; {|"\u+123"|}; {|"\u 123"|}; {|"\u12"|}; {|"\u12g4"|} ];
        match Json.of_string {|"\u00E9\u00e9"|} with
        | Ok (Json.String s) -> Alcotest.(check string) "either case" "\xc3\xa9\xc3\xa9" s
        | _ -> Alcotest.fail "\\u00E9 rejected");
    tc "surrogate pairs decode to one 4-byte sequence" (fun () ->
        (match Json.of_string {|"\ud83d\ude00 \uD834\uDD1E"|} with
        | Ok (Json.String s) ->
            Alcotest.(check string) "U+1F600 U+1D11E" "\xf0\x9f\x98\x80 \xf0\x9d\x84\x9e" s
        | _ -> Alcotest.fail "surrogate pair rejected");
        match Json.of_string {|"\udbff\udfff"|} with
        | Ok (Json.String s) -> Alcotest.(check string) "U+10FFFF" "\xf4\x8f\xbf\xbf" s
        | _ -> Alcotest.fail "U+10FFFF rejected");
    tc "lone surrogates are rejected with a one-line error" (fun () ->
        (* A lone high surrogate used to decode to the invalid UTF-8
           bytes ED A0 BD. *)
        List.iter
          (fun s ->
            let e = parse_error s in
            check_true (s ^ " names the surrogate")
              (String.length e >= 14 && String.sub e 0 14 = "lone surrogate");
            check_false (s ^ " is one line") (String.contains e '\n'))
          [
            {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ud83d\ud83d"|};
            {|"\ud83d\n"|};
          ]);
    tc "seeded codec round trip" (fun () ->
        let rng = Splitmix.create 0x150aL in
        for i = 1 to 2000 do
          let v = gen_value rng 3 in
          let text = Json.to_string v in
          match Json.of_string text with
          | Ok v' ->
              if not (same v v') then Alcotest.failf "value %d changed: %s" i text;
              Alcotest.(check string) (Printf.sprintf "value %d re-renders" i) text
                (Json.to_string v')
          | Error e -> Alcotest.failf "value %d: %s: %s" i e text
        done);
    tc "float_repr prints the Printf-based bytes" (fun () ->
        let check x =
          let expect = printf_float_repr x in
          if Json.float_repr x <> expect then
            Alcotest.failf "%h: %s, was %s" x (Json.float_repr x) expect
        in
        let rng = Splitmix.create 0x7e9aL in
        for _ = 1 to 100_000 do
          check (Int64.float_of_bits (Splitmix.next64 rng));
          check (gen_float rng)
        done;
        (* Every ρ the certificate store journals for the connected n=8
           grid of the store benchmark. *)
        let graphs = Enumerate.connected_graphs_orderly 8 in
        check_int "connected n=8 classes" 11117 (List.length graphs);
        List.iter
          (fun alpha -> List.iter (fun g -> check (Cost.rho ~alpha g)) graphs)
          [ 1.; 2.; 4.; 8. ]);
    tc "parser rejects garbage" (fun () ->
        List.iter
          (fun s ->
            match Json.of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "{\"a\":}" ]);
    tc "accessors" (fun () ->
        let j = Json.Obj [ ("n", Json.Int 3); ("x", Json.Float 1.5); ("s", Json.String "v") ] in
        check_true "member hit" (Json.member "n" j = Some (Json.Int 3));
        check_true "member miss" (Json.member "zz" j = None);
        check_true "as_int of Int" (Json.as_int (Json.Int 3) = Some 3);
        check_true "as_int of integral Float" (Json.as_int (Json.Float 3.0) = Some 3);
        check_true "as_int of fractional Float" (Json.as_int (Json.Float 3.5) = None);
        check_true "as_float of Int" (Json.as_float (Json.Int 2) = Some 2.0);
        check_true "as_string" (Json.as_string (Json.String "v") = Some "v");
        check_true "as_list" (Json.as_list (Json.List [ Json.Null ]) = Some [ Json.Null ]));
  ]
