(* Spans for the traced benchmark run.

   Two sources feed one timeline.  The program's own spans and counters
   come from its {!Obs} trace file, unchanged.  The benchmark's spans
   around each public call it makes are recorded here, in memory, on
   the same monotonic clock, and written out only when the run ends, so
   recording them costs no I/O while the program runs. *)

type span = { name : string; tid : int; ts : int; dur : int (* microseconds *) }

let recording = ref false
let origin = ref 0
let spans : span list ref = ref []

(* Starts the program's trace sink and the in-memory recorder together,
   with the program's counters zeroed so the trace's final snapshot
   covers this session only.  The trace counts from a clock reading
   taken inside {!Obs.start} after it opens the file; [origin] is read
   just after [start] returns, so benchmark timestamps run at most a few
   microseconds early — within the nesting slack below. *)
let start ~trace_file =
  Obs.reset_counters ();
  Obs.start ~trace:trace_file ~echo:false ();
  origin := Obs.now_us ();
  spans := [];
  recording := true

let stop () =
  Obs.stop ();
  recording := false

let span name f =
  if not !recording then f ()
  else begin
    let t0 = Obs.now_us () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Obs.now_us () in
        spans := { name; tid = 0; ts = t0 - !origin; dur = t1 - t0 } :: !spans)
  end

let recorded () = List.rev !spans

(* Reads an {!Obs} trace: its spans and its final counter snapshot. *)
let read_obs_trace path =
  let ic = open_in path in
  let spans = ref [] and counters = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Json.of_string line with
       | Error _ -> ()
       | Ok j -> (
           let int k = Option.bind (Json.member k j) Json.as_int in
           match Option.bind (Json.member "ev" j) Json.as_string with
           | Some "span" -> (
               match
                 (Option.bind (Json.member "name" j) Json.as_string, int "tid", int "ts_us",
                  int "dur_us")
               with
               | Some name, Some tid, Some ts, Some dur ->
                   spans := { name; tid; ts; dur } :: !spans
               | _ -> ())
           | Some "counters" -> (
               match Json.member "counters" j with
               | Some (Json.Obj kv) ->
                   counters :=
                     List.filter_map
                       (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.as_int v))
                       kv
               | _ -> ())
           | _ -> ())
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !spans, !counters)

let span_to_json s =
  Json.Obj
    [
      ("ev", Json.String "span"); ("name", Json.String s.name); ("ts_us", Json.Int s.ts);
      ("dur_us", Json.Int s.dur); ("tid", Json.Int s.tid);
    ]

(* The merged timeline, as the same JSONL the program writes. *)
let write path spans =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Json.to_string (span_to_json s) ^ "\n")) spans;
  close_out oc

(* Nesting slack: the two clocks' origins agree to a few microseconds.
   Benchmark spans only ever wrap program calls, so for nesting they are
   widened by the slack and a program span never ends up their parent. *)
let slack_us = 50

type agg = { count : int; total_us : int; self_us : int }

(* Count, total and self time per span name.  On each thread spans nest
   by interval; a span's self time is its duration minus the time its
   direct children cover. *)
let aggregate ~bench ~program =
  let tbl : (string, agg) Hashtbl.t = Hashtbl.create 16 in
  let by_tid = Hashtbl.create 4 in
  let add s lo hi =
    let l = try Hashtbl.find by_tid s.tid with Not_found -> [] in
    Hashtbl.replace by_tid s.tid ((s, lo, hi) :: l)
  in
  List.iter (fun s -> add s (s.ts - slack_us) (s.ts + s.dur + slack_us)) bench;
  List.iter (fun s -> add s s.ts (s.ts + s.dur)) program;
  Hashtbl.iter
    (fun _ ss ->
      let ss =
        Array.of_list
          (List.sort
             (fun (_, lo1, hi1) (_, lo2, hi2) -> if lo1 <> lo2 then compare lo1 lo2 else compare hi2 hi1)
             ss)
      in
      let child = Array.make (Array.length ss) 0 in
      let stack = ref [] in
      Array.iteri
        (fun i (s, lo, hi) ->
          let rec pop () =
            match !stack with
            | j :: rest ->
                let _, _, phi = ss.(j) in
                if lo >= phi || hi > phi + 2 then begin
                  stack := rest;
                  pop ()
                end
            | [] -> ()
          in
          pop ();
          (match !stack with j :: _ -> child.(j) <- child.(j) + s.dur | [] -> ());
          stack := i :: !stack)
        ss;
      Array.iteri
        (fun i (s, _, _) ->
          let a =
            try Hashtbl.find tbl s.name with Not_found -> { count = 0; total_us = 0; self_us = 0 }
          in
          Hashtbl.replace tbl s.name
            {
              count = a.count + 1;
              total_us = a.total_us + s.dur;
              self_us = a.self_us + s.dur - child.(i);
            })
        ss)
    by_tid;
  tbl

let find tbl name =
  try Hashtbl.find tbl name with Not_found -> { count = 0; total_us = 0; self_us = 0 }

let total_s tbl name = float_of_int (find tbl name).total_us /. 1e6
let self_s tbl name = float_of_int (find tbl name).self_us /. 1e6
