(* Summary statistics for benchmark reports.

   Every figure a report prints carries the number it rests on: a
   median its sample count, a tail percentile its sample count and the
   number of samples beyond it, a ratio its numerator and base.  A tail
   percentile with fewer than [min_beyond] samples beyond it is refused
   rather than printed, because it would be the maximum of a handful of
   samples under another name. *)

let min_beyond = 10

type summary = { value : float; samples : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else
    let v = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2. in
    Some { value = v; samples = n }

type percentile = { q : float; pvalue : float; psamples : int; beyond : int }

(* Nearest rank: the smallest sample with at least [q] of all samples at
   or below it; [beyond] counts the samples strictly after that rank. *)
let percentile q xs =
  if not (q > 0. && q < 1.) then invalid_arg "Pb_stats.percentile: q must lie in (0, 1)";
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  let beyond = n - rank in
  if n = 0 then Error "no samples"
  else if beyond < min_beyond then
    Error
      (Printf.sprintf "p%g refused: %d of %d samples lie beyond it, need %d" (100. *. q)
         beyond n min_beyond)
  else Ok { q; pvalue = a.(rank - 1); psamples = n; beyond }

type ratio = { num : float; base : float }

let ratio num base = { num; base }

(* A ratio over an empty base has no value; reports print it as 0 with
   its base, so the base shows the layer did no work. *)
let ratio_value r = if r.base = 0. then 0. else r.num /. r.base

let fmt_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.6g" x

let ratio_to_string r =
  Printf.sprintf "%.6g (%s / %s)" (ratio_value r) (fmt_num r.num) (fmt_num r.base)

let summary_to_string unit = function
  | None -> "n/a (0 samples)"
  | Some s -> Printf.sprintf "%.6g %s (median, n=%d)" s.value unit s.samples

let percentile_to_string unit = function
  | Error e -> e
  | Ok p ->
      Printf.sprintf "%.6g %s (p%g, n=%d, %d beyond)" p.pvalue unit (100. *. p.q)
        p.psamples p.beyond
