(* Order statistics for repeated measurements. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Python's
   [statistics.quantiles(method="inclusive")], numpy's default): the
   percentile used for latency distributions. *)
let quantile p xs =
  if xs = [] then invalid_arg "Stats.quantile: no samples";
  if p < 0. || p > 1. then invalid_arg "Stats.quantile: p outside [0, 1]";
  let a = sorted xs in
  let pos = p *. float_of_int (Array.length a - 1) in
  let j = int_of_float pos in
  if j >= Array.length a - 1 then a.(Array.length a - 1)
  else
    let d = pos -. float_of_int j in
    a.(j) +. (d *. (a.(j + 1) -. a.(j)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (the default "exclusive" method): the spread rule that accepts
   or rejects this benchmark is stated in those terms. *)
let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.quartiles: no samples"
  | [| x |] -> (x, x, x)
  | a ->
      let ld = Array.length a and n = 4 in
      let m = ld + 1 in
      let q i =
        let j = Int.max 1 (Int.min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n
      in
      (q 1, q 2, q 3)

(* Distance between the first and third quartile as a share of the
   median. *)
let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* [num /. den], with an empty denominator read as a zero ratio: rates
   over counters that a workload never touches. *)
let ratio num den = if den = 0. then 0. else num /. den
