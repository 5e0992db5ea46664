type entry = { verdict : Verdict.t; rho : float }

(* Equal certificates share one value: a swept store holds hundreds of
   thousands of entries but only a few thousand distinct ones.  ρ is
   compared by its bits, so nan and -0.0 are kept exactly as given.
   Each shared value carries its journal fields, rendered on first
   record. *)
module Entries = Hashtbl.Make (struct
  type t = entry

  let equal a b =
    Int64.equal (Int64.bits_of_float a.rho) (Int64.bits_of_float b.rho)
    && a.verdict = b.verdict

  (* Bit-equal floats hash alike, so this agrees with [equal]. *)
  let hash = Hashtbl.hash
end)

type t = {
  dir : string;
  certs : (string, entry) Hashtbl.t;  (* [slot] of a content address -> certificate *)
  entries : (entry * string Lazy.t) Entries.t;  (* distinct certificate -> shared value *)
  canon : (string, string) Hashtbl.t;  (* labelled adjacency key -> canonical g6 *)
  families : (string, string list) Hashtbl.t;  (* family key -> g6s in enum order *)
  journal_path : string;
  mutable journal : out_channel option;  (* opened lazily on first record *)
  mutable unflushed : bool;  (* lines appended since the last flush *)
  mutable cell_fields : ((string * string * int64 * int option) * string) option;
      (* the last (game, concept, α bits, budget) recorded, rendered *)
}

let dir t = t.dir
let cert_count t = Hashtbl.length t.certs

(* The table holds a content address (32 lowercase hex digits) under
   its 16 raw bytes, which halves the memory of the key strings: a
   swept store holds hundreds of thousands of them, twice over while a
   closed store's table awaits collection.  Any other key (only a
   hand-edited journal has one) is held as itself padded past 16 bytes,
   so the mapping stays one-to-one. *)
let slot key =
  if
    String.length key = 32
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) key
  then Digest.from_hex key
  else key ^ String.make 17 '\000'

(* Telemetry only (see Obs): counting never changes what is stored,
   found, or journaled. *)
let c_hits = Obs.counter "cert_store.hits"
let c_misses = Obs.counter "cert_store.misses"
let c_canon_hits = Obs.counter "cert_store.canon_hits"
let c_canon_misses = Obs.counter "cert_store.canon_misses"
let c_flushes = Obs.counter "cert_store.flushes"

let budget_tag = function Some b -> string_of_int b | None -> "-"
let bilateral = "bilateral"

(* The bilateral game keeps the historical key string (every journal
   written before games were first-class must keep hitting the cache);
   any other game prefixes its canonical name, so certificates from
   different games can never collide. *)
let cert_key_for ?(game = bilateral) ~concept ~alpha ~budget =
  let prefix = if String.equal game bilateral then "cert|" else "cert|" ^ game ^ "|" in
  let suffix = Printf.sprintf "|%s|%h|%s" concept alpha (budget_tag budget) in
  fun canon_g6 -> Digest.to_hex (Digest.string (String.concat "" [ prefix; canon_g6; suffix ]))

let cert_key ?game ~concept ~alpha ~budget ~canon_g6 () =
  cert_key_for ?game ~concept ~alpha ~budget canon_g6

(* ------------------------------------------------------------------ *)
(* JSONL records                                                       *)
(* ------------------------------------------------------------------ *)

(* [Json.to_string (Obj fields)] without its braces.  [Obj (a @ b)]
   renders as [{], [a]'s fields, [,], [b]'s fields, [}], so a cert line
   is assembled from pieces rendered once per cell and once per
   distinct certificate, byte-identical to rendering it whole. *)
let obj_fields fields =
  let s = Json.to_string (Json.Obj fields) in
  String.sub s 1 (String.length s - 2)

(* A cert line's fields are [kind key g6 (game) concept alpha budget
   verdict rho].  Bilateral cert lines keep the historical field set
   byte-for-byte; other games carry an explicit ["game"] field.  The
   loader keys off ["key"] alone, so both shapes absorb identically.
   ρ is legitimately infinite for a disconnected graph; [Json.number]
   keeps such certificates round-tripping ([Json.to_string] refuses
   bare non-finite floats). *)
let cert_head ~key ~canon_g6 =
  obj_fields
    [ ("kind", Json.String "cert"); ("key", Json.String key); ("g6", Json.String canon_g6) ]

let cert_cell ~game ~concept ~alpha ~budget =
  obj_fields
    ((if String.equal game bilateral then [] else [ ("game", Json.String game) ])
    @ [
        ("concept", Json.String concept); ("alpha", Json.number alpha);
        ("budget", match budget with Some b -> Json.Int b | None -> Json.Null);
      ])

let cert_tail e =
  obj_fields [ ("verdict", Verdict.to_json e.verdict); ("rho", Json.number e.rho) ]

let canon_line ~akey ~g6 =
  Json.Obj
    [ ("kind", Json.String "canon"); ("graph", Json.String akey); ("g6", Json.String g6) ]

let family_line ~name g6s =
  Json.Obj
    [
      ("kind", Json.String "family"); ("name", Json.String name);
      ("graphs", Json.List (List.map (fun s -> Json.String s) g6s));
    ]

let intern t e =
  match Entries.find_opt t.entries e with
  | Some shared -> shared
  | None ->
      let shared = (e, lazy (cert_tail e)) in
      Entries.add t.entries e shared;
      shared

let add_cert t key e = Hashtbl.replace t.certs (slot key) (fst (intern t e))

let load_line t line =
  match Json.of_string line with
  | Error _ -> ()  (* a truncated tail line from a killed run: skip *)
  | Ok j -> (
      match Option.bind (Json.member "kind" j) Json.as_string with
      | Some "cert" -> (
          let key = Option.bind (Json.member "key" j) Json.as_string in
          let rho = Option.bind (Json.member "rho" j) Json.as_number in
          let verdict =
            match Json.member "verdict" j with
            | Some vj -> ( match Verdict.of_json vj with Ok v -> Some v | Error _ -> None)
            | None -> None
          in
          match (key, verdict, rho) with
          | Some key, Some verdict, Some rho -> add_cert t key { verdict; rho }
          | _ -> ())
      | Some "canon" -> (
          let akey = Option.bind (Json.member "graph" j) Json.as_string in
          let g6 = Option.bind (Json.member "g6" j) Json.as_string in
          match (akey, g6) with
          | Some akey, Some g6 -> Hashtbl.replace t.canon akey g6
          | _ -> ())
      | Some "family" -> (
          let name = Option.bind (Json.member "name" j) Json.as_string in
          let g6s =
            Option.map
              (List.filter_map Json.as_string)
              (Option.bind (Json.member "graphs" j) Json.as_list)
          in
          match (name, g6s) with
          | Some name, Some g6s -> Hashtbl.replace t.families name g6s
          | _ -> ())
      | Some _ | None -> ())

(* A journal that is empty, unreadable, or gone by the time we open it
   (a dangling symlink, a concurrent cleanup) contributes nothing — the
   store must come up identical to one where the file never existed. *)
let load_journal t path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            while true do
              load_line t (input_line ic)
            done
          with End_of_file -> ())

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_journal_path dir =
  let rec go k =
    let path = Filename.concat dir (Printf.sprintf "journal-%04d.jsonl" k) in
    if Sys.file_exists path then go (k + 1) else path
  in
  go 0

let open_store dirname =
  mkdir_p dirname;
  let t =
    {
      dir = dirname;
      certs = Hashtbl.create 4096;
      entries = Entries.create 256;
      canon = Hashtbl.create 1024;
      families = Hashtbl.create 16;
      journal_path = fresh_journal_path dirname;
      journal = None;
      unflushed = false;
      cell_fields = None;
    }
  in
  Sys.readdir dirname
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort String.compare
  |> List.iter (fun f -> load_journal t (Filename.concat dirname f));
  t

let append_line t line =
  let oc =
    match t.journal with
    | Some oc -> oc
    | None ->
        let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.journal_path in
        t.journal <- Some oc;
        oc
  in
  output_string oc line;
  output_char oc '\n';
  t.unflushed <- true

let append t j = append_line t (Json.to_string j)

let flush t =
  match t.journal with
  | Some oc when t.unflushed ->
      flush oc;
      t.unflushed <- false;
      Obs.incr c_flushes
  | Some _ | None -> ()

let close t =
  match t.journal with
  | None -> ()
  | Some oc ->
      flush t;
      close_out_noerr oc;
      t.journal <- None

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let find t ~key =
  let e = Hashtbl.find_opt t.certs (slot key) in
  Obs.incr (if e = None then c_misses else c_hits);
  e

let record ?(game = bilateral) t ~key ~canon_g6 ~concept ~alpha ~budget e =
  let shared, tail = intern t e in
  Hashtbl.replace t.certs (slot key) shared;
  let cell = (game, concept, Int64.bits_of_float alpha, budget) in
  let cell_fields =
    match t.cell_fields with
    | Some (c, fields) when c = cell -> fields
    | Some _ | None ->
        let fields = cert_cell ~game ~concept ~alpha ~budget in
        t.cell_fields <- Some (cell, fields);
        fields
  in
  append_line t
    (String.concat ""
       [ "{"; cert_head ~key ~canon_g6; ","; cell_fields; ","; Lazy.force tail; "}" ])

(* ------------------------------------------------------------------ *)
(* Canonicalisation memo                                               *)
(* ------------------------------------------------------------------ *)

let find_canon t g =
  let e = Hashtbl.find_opt t.canon (Graph.adjacency_key g) in
  Obs.incr (if e = None then c_canon_misses else c_canon_hits);
  e

let record_canon t g g6 =
  let akey = Graph.adjacency_key g in
  Hashtbl.replace t.canon akey g6;
  append t (canon_line ~akey ~g6)

(* ------------------------------------------------------------------ *)
(* Candidate-family memo                                               *)
(* ------------------------------------------------------------------ *)

let find_family t name =
  Option.map (List.map Encode.of_graph6) (Hashtbl.find_opt t.families name)

let record_family t name graphs =
  let g6s = List.map Encode.to_graph6 graphs in
  Hashtbl.replace t.families name g6s;
  append t (family_line ~name g6s)

(* ------------------------------------------------------------------ *)
(* Journal absorption                                                  *)
(* ------------------------------------------------------------------ *)

(* A record is new iff loading it grew one of the tables ([load_line]
   only ever [Hashtbl.replace]s, so the combined length is a record
   count).  New records are appended to this run's journal as the raw
   source line: re-serialising would need [Concept.of_string] on names
   this binary may not know, while the raw line is already exactly the
   JSONL this store reads back. *)
let size t = Hashtbl.length t.certs + Hashtbl.length t.canon + Hashtbl.length t.families

let absorb t src =
  if Sys.file_exists src && Sys.is_directory src
     && Unix.((stat src).st_ino, (stat src).st_dev)
        = Unix.((stat t.dir).st_ino, (stat t.dir).st_dev)
  then invalid_arg "Cert_store.absorb: source is this store's own directory";
  let absorbed = ref 0 in
  let absorb_line line =
    let before = size t in
    load_line t line;
    if size t > before then begin
      append_line t line;
      incr absorbed
    end
  in
  (match Sys.readdir src with
  | exception Sys_error _ -> ()
  | files ->
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort String.compare
      |> List.iter (fun f ->
             match open_in_bin (Filename.concat src f) with
             | exception Sys_error _ -> ()
             | ic ->
                 Fun.protect
                   ~finally:(fun () -> close_in_noerr ic)
                   (fun () ->
                     try
                       while true do
                         absorb_line (input_line ic)
                       done
                     with End_of_file -> ())));
  flush t;
  !absorbed

let canonical_g6 t g =
  match find_canon t g with
  | Some g6 -> g6
  | None ->
      let g6 = Encode.canonical_graph6 g in
      record_canon t g g6;
      g6
