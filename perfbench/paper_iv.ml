(* Workload paper_iv: the paper's flow on the IV converter.

   Set-up builds the calibrated context (fast profile, dense backend).
   A round runs Engine.run over a seeded seven-fault sample of the
   55-fault dictionary at jobs 1, compacts the result against the full
   dictionary, and re-scores the compact set with Coverage.evaluate.
   Nonlinear transient configurations dominate here and batching
   declines every pair, so circuit, dense numerics, execute, the
   evaluator caches and generate do the work. *)

open Testgen

let name = "paper_iv"

(* Per fault: its generation time in ms when generated alone on fresh
   evaluator forks of the calibrated context (fast profile, jobs 1), the
   best of three passes in alternating order on the 2-core host; and the
   configuration of its best test.  Every fault of the dictionary is
   listed.  The solver's Newton-iteration count tracked time too loosely
   to balance on (correlation 0.85): samples with equal counts differed
   by a quarter in generation time, because transient steps cost more
   than their iterations say. *)
let reference =
  [
    ("bridge:0-iin", 1698, 2); ("bridge:0-n1", 1928, 2);
    ("bridge:0-n2", 3672, 2); ("bridge:0-nbias", 2574, 2);
    ("bridge:0-nmir", 1866, 2); ("bridge:0-ntail", 3630, 4);
    ("bridge:0-vdd", 2747, 2); ("bridge:0-vout", 2123, 5);
    ("bridge:0-vref", 2540, 2); ("bridge:iin-n1", 3281, 1);
    ("bridge:iin-n2", 2317, 2); ("bridge:iin-nbias", 1337, 2);
    ("bridge:iin-nmir", 2237, 1); ("bridge:iin-ntail", 1819, 2);
    ("bridge:iin-vdd", 1826, 2); ("bridge:iin-vout", 2045, 5);
    ("bridge:iin-vref", 3273, 3); ("bridge:n1-n2", 2113, 2);
    ("bridge:n1-nbias", 1565, 2); ("bridge:n1-nmir", 2940, 2);
    ("bridge:n1-ntail", 1949, 2); ("bridge:n1-vdd", 2206, 2);
    ("bridge:n1-vout", 3159, 2); ("bridge:n1-vref", 1565, 2);
    ("bridge:n2-nbias", 2771, 5); ("bridge:n2-nmir", 2547, 1);
    ("bridge:n2-ntail", 2263, 5); ("bridge:n2-vdd", 3310, 5);
    ("bridge:n2-vout", 3087, 3); ("bridge:n2-vref", 2064, 2);
    ("bridge:nbias-nmir", 1814, 2); ("bridge:nbias-ntail", 2842, 5);
    ("bridge:nbias-vdd", 2354, 5); ("bridge:nbias-vout", 2576, 3);
    ("bridge:nbias-vref", 2195, 2); ("bridge:nmir-ntail", 1763, 2);
    ("bridge:nmir-vdd", 2282, 2); ("bridge:nmir-vout", 2858, 1);
    ("bridge:nmir-vref", 2640, 2); ("bridge:ntail-vdd", 2195, 4);
    ("bridge:ntail-vout", 4548, 3); ("bridge:ntail-vref", 2778, 1);
    ("bridge:vdd-vout", 2621, 2); ("bridge:vdd-vref", 2367, 2);
    ("bridge:vout-vref", 4170, 4); ("pinhole:m1", 1444, 2);
    ("pinhole:m2", 2105, 1); ("pinhole:m3", 3303, 2);
    ("pinhole:m4", 1851, 1); ("pinhole:m5", 2386, 2);
    ("pinhole:m6", 1824, 1); ("pinhole:m7", 1817, 4);
    ("pinhole:m8", 3033, 5); ("pinhole:m9", 6170, 4);
    ("pinhole:m10", 1717, 4);
  ]

let lookup (e : Faults.Dictionary.entry) =
  match List.find_opt (fun (id, _, _) -> id = e.fault_id) reference with
  | Some (_, ms, c) -> (float_of_int ms, c)
  | None -> invalid_arg ("Paper_iv: no reference for " ^ e.fault_id)

let cost e = fst (lookup e)

let has_pinhole s = List.exists (fun e -> Sampler.kind_label e = "pinhole") s
let total s = List.fold_left (fun acc e -> acc +. cost e) 0. s
let p50 s = Stats.median (List.map cost s)
let p90 s = Stats.quantile 0.9 (List.map cost s)

(* The typical total, median and p90 of the reference cost: their
   medians over 4001 unconstrained draws with a pinhole, from a fixed
   stream. *)
let targets strata =
  let rng = Sampler.rng_of_seed ~salt:(name ^ "/targets") 0 in
  let draws =
    List.filter has_pinhole (List.init 4001 (fun _ -> Sampler.draw rng strata))
  in
  let med f = Stats.median (List.map f draws) in
  (med total, med p50, med p90)

let near target tol x = Float.abs (x -. target) <= tol *. target

(* Strata are the configurations of the faults' best tests: two faults
   from configurations 2 and 5, one from each other, at least one of
   them a pinhole.  A draw is kept when the total, the median and the
   p90 of its reference costs lie within 1 %, 5 % and 5 % of their
   typical values.  So every seed compacts to tests of every
   configuration at the same expected generation time and per-fault
   latencies, and pinhole:m9, the costliest fault, stays in reach. *)
let sample ~seed dict =
  let label e = Printf.sprintf "c%d" (snd (lookup e)) in
  let quota l _ = if l = "c2" || l = "c5" then 2 else 1 in
  let strata = Sampler.strata ~label ~quota dict in
  let target_total, target_p50, target_p90 = targets strata in
  let accept s =
    has_pinhole s && near target_p50 0.05 (p50 s) && near target_p90 0.05 (p90 s)
  in
  Sampler.balanced ~accept ~cost ~target:target_total ~tol:0.01
    (Sampler.rng_of_seed ~salt:name seed)
    strata

let spec =
  {
    Batch.name;
    dictionary = (fun () -> Macros.Macro.dictionary Macros.Iv_converter.macro);
    setup =
      (fun () ->
        Experiments.Setup.iv ~profile:Execute.fast_profile ~backend:Circuit.Mna.Dense ());
    (* calibration takes 2-3 s, and the host's drift moves it by a third
       between runs: time it three times *)
    setup_reps = 3;
    options = None;
    sample;
    phase_reps = 1;
    (* the compact set itself, re-scored *)
    coverage_tests = (fun ~seed:_ _ c -> Common.tests_of c);
    check =
      (fun c cov ->
        if cov.Coverage.covered = c.Compactor.coverage.Coverage.covered then None
        else Some "re-scored coverage differs from the compactor's");
  }
