(* See the interface for the determinism contract.  The implementation
   keeps the disabled path to a single atomic load: counters, spans and
   ticks all check [enabled_flag] (or the sink ref) first and touch
   nothing else when telemetry is off.  When a sink is active, all
   writes funnel through one mutex; counters are lock-free atomics so
   worker domains never contend on the registry in steady state. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let now_ns () = Monotonic_clock.now ()
let now_us () = Int64.to_int (Int64.div (now_ns ()) 1000L)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { cname : string; cell : int Atomic.t }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
let reg_mutex = Mutex.create ()

let counter name =
  Mutex.lock reg_mutex;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock reg_mutex;
  c

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let add c k = if enabled () then ignore (Atomic.fetch_and_add c.cell k)
let incr c = add c 1
let value c = Atomic.get c.cell

let reset_counters () =
  Mutex.lock reg_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry;
  Mutex.unlock reg_mutex

(* The incremental distance oracle lives below this library (its stats
   are plain per-instance fields plus process-wide atomics), so its
   counters are polled at snapshot time instead of pushed. *)
let snapshot () =
  Mutex.lock reg_mutex;
  let base =
    Hashtbl.fold (fun _ c acc -> (c.cname, Atomic.get c.cell) :: acc) registry []
  in
  Mutex.unlock reg_mutex;
  let o = Dist_oracle.global_stats () in
  let polled =
    [
      ("dist_oracle.scratch", o.Dist_oracle.scratch);
      ("dist_oracle.relaxed", o.Dist_oracle.relaxed);
      ("dist_oracle.kept", o.Dist_oracle.kept);
      ("dist_oracle.dropped", o.Dist_oracle.dropped);
    ]
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (base @ polled)

(* ------------------------------------------------------------------ *)
(* The sink                                                            *)
(* ------------------------------------------------------------------ *)

type sink = {
  oc : out_channel option;
  echo : bool;
  hb_ns : int64 option;
  t0 : int64;
  m : Mutex.t;
  mutable hb_last : int64;
  mutable hb_seq : int;
}

let active : sink option ref = ref None

let us_since s t = Int64.to_int (Int64.div (Int64.sub t s.t0) 1000L)

let write_locked s j =
  match s.oc with
  | None -> ()
  | Some oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n'

let emit s j =
  Mutex.lock s.m;
  write_locked s j;
  Mutex.unlock s.m

let counters_json cs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs)

let start ?trace ?heartbeat ?(echo = true) () =
  (match !active with
  | Some _ -> invalid_arg "Obs.start: a sink is already active"
  | None -> ());
  (match heartbeat with
  | Some h when (not (Float.is_finite h)) || h <= 0. ->
      invalid_arg "Obs.start: heartbeat must be a positive number of seconds"
  | _ -> ());
  let oc = Option.map open_out trace in
  let t0 = now_ns () in
  let s =
    {
      oc;
      echo;
      hb_ns = Option.map (fun h -> Int64.of_float (h *. 1e9)) heartbeat;
      t0;
      m = Mutex.create ();
      hb_last = t0;
      hb_seq = 0;
    }
  in
  active := Some s;
  Atomic.set enabled_flag true;
  emit s
    (Json.Obj
       [
         ("ev", Json.String "meta"); ("version", Json.Int 1);
         ("clock", Json.String "monotonic");
       ])

let stop () =
  match !active with
  | None -> ()
  | Some s ->
      Atomic.set enabled_flag false;
      active := None;
      emit s
        (Json.Obj
           [
             ("ev", Json.String "counters");
             ("ts_us", Json.Int (us_since s (now_ns ())));
             ("counters", counters_json (snapshot ()));
           ]);
      Option.iter close_out_noerr s.oc

let span ?(args = []) ?result_args name f =
  match !active with
  | None -> f ()
  | Some s when s.oc = None -> f ()
  | Some s ->
      let t_start = now_ns () in
      let args = ref args in
      Fun.protect
        ~finally:(fun () ->
          let dur = Int64.to_int (Int64.div (Int64.sub (now_ns ()) t_start) 1000L) in
          emit s
            (Json.Obj
               ([
                  ("ev", Json.String "span"); ("name", Json.String name);
                  ("ts_us", Json.Int (us_since s t_start)); ("dur_us", Json.Int dur);
                  ("tid", Json.Int (Domain.self () :> int));
                ]
               @ match !args with [] -> [] | a -> [ ("args", Json.Obj a) ])))
        (fun () ->
          let x = f () in
          Option.iter (fun r -> args := !args @ r x) result_args;
          x)

(* Heartbeat emission re-checks the interval under the sink mutex so
   concurrent tickers collapse to one event. *)
let heartbeat_now s now =
  let fire =
    Mutex.lock s.m;
    match s.hb_ns with
    | Some hb when Int64.sub now s.hb_last >= hb ->
        s.hb_last <- now;
        s.hb_seq <- s.hb_seq + 1;
        Some s.hb_seq
    | _ -> None
  in
  match fire with
  | None -> Mutex.unlock s.m
  | Some seq ->
      let cs = snapshot () in
      write_locked s
        (Json.Obj
           [
             ("ev", Json.String "heartbeat"); ("seq", Json.Int seq);
             ("ts_us", Json.Int (us_since s now)); ("counters", counters_json cs);
           ]);
      Mutex.unlock s.m;
      if s.echo then begin
        let parts =
          List.filter_map
            (fun (k, v) -> if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
            cs
        in
        Printf.eprintf "[bncg] heartbeat #%d t=%.1fs %s\n%!" seq
          (Int64.to_float (Int64.sub now s.t0) /. 1e9)
          (String.concat " " parts)
      end

let tick () =
  if enabled () then
    match !active with
    | Some ({ hb_ns = Some hb; _ } as s) ->
        let now = now_ns () in
        if Int64.sub now s.hb_last >= hb then heartbeat_now s now
    | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

let jint ?(default = 0) k j =
  Option.value ~default (Option.bind (Json.member k j) Json.as_int)

let jstr k j = Option.bind (Json.member k j) Json.as_string

let counter_events ~ts j =
  match Json.member "counters" j with
  | Some (Json.Obj fields) ->
      List.map
        (fun (k, v) ->
          Json.Obj
            [
              ("name", Json.String k); ("ph", Json.String "C");
              ("ts", Json.Int ts); ("pid", Json.Int 1);
              ("args", Json.Obj [ ("value", v) ]);
            ])
        fields
  | _ -> []

let chrome_of_event j =
  let ts = jint "ts_us" j in
  match jstr "ev" j with
  | Some "meta" ->
      [
        Json.Obj
          [
            ("name", Json.String "process_name"); ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("args", Json.Obj [ ("name", Json.String "bncg") ]);
          ];
      ]
  | Some "span" ->
      let args = match Json.member "args" j with Some a -> [ ("args", a) ] | None -> [] in
      [
        Json.Obj
          ([
             ("name", Json.String (Option.value ~default:"?" (jstr "name" j)));
             ("cat", Json.String "bncg"); ("ph", Json.String "X");
             ("ts", Json.Int ts); ("dur", Json.Int (jint "dur_us" j));
             ("pid", Json.Int 1); ("tid", Json.Int (jint "tid" j));
           ]
          @ args);
      ]
  | Some "heartbeat" ->
      Json.Obj
        [
          ("name", Json.String "heartbeat"); ("ph", Json.String "i");
          ("ts", Json.Int ts); ("pid", Json.Int 1); ("tid", Json.Int 0);
          ("s", Json.String "g");
        ]
      :: counter_events ~ts j
  | Some "counters" -> counter_events ~ts j
  | Some _ | None -> []

let export_chrome ~src ~dst =
  match In_channel.with_open_text src In_channel.input_all with
  | exception Sys_error e -> Error e
  | content -> (
      let lines = String.split_on_char '\n' content in
      let rec parse lineno acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest when String.trim l = "" -> parse (lineno + 1) acc rest
        | l :: rest -> (
            match Json.of_string l with
            | Error e -> Error (Printf.sprintf "%s:%d: %s" src lineno e)
            | Ok j -> parse (lineno + 1) (List.rev_append (chrome_of_event j) acc) rest)
      in
      match parse 1 [] lines with
      | Error _ as e -> e
      | Ok events ->
          (match dst with
          | None -> ()
          | Some path ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc
                    (Json.to_string
                       (Json.Obj
                          [
                            ("traceEvents", Json.List events);
                            ("displayTimeUnit", Json.String "ms");
                          ]));
                  output_char oc '\n'));
          Ok (List.length events))
