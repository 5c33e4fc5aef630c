(* The two batch workloads share one shape: a context, a seeded fault
   sample, and rounds that generate tests for the sample, compact them
   against the full dictionary and score a test set with
   Coverage.evaluate.  A workload is a [spec]; this module runs it. *)

open Testgen

type spec = {
  name : string;
  dictionary : unit -> Faults.Dictionary.t;  (** the full dictionary *)
  setup : unit -> Experiments.Setup.t;
  setup_reps : int;  (** set-up is timed at least this often *)
  options : Generate.options option;  (** for Engine.run *)
  sample : seed:int -> Faults.Dictionary.t -> Faults.Dictionary.entry list;
  coverage_tests :
    seed:int -> Experiments.Setup.t -> Compactor.result -> Coverage.test list;
  check : Compactor.result -> Coverage.report -> string option;
      (** a workload-specific failure, if any *)
  phase_reps : int;
      (** Compaction and the coverage sweep take about a second each,
          where the host's speed drifts by +-20 %: an untraced round
          repeats them, interleaved, and reports their means. *)
}

type round = {
  generate_s : float;
  compact_s : float;
  coverage_s : float;
  fault_times : float list;
  digest : string;
  failed : int;
  pairs : int;
  compaction_ratio : float;
  heap_mb : float;  (** peak major heap so far, read as the round ends *)
}

let wall r = r.generate_s +. r.compact_s +. r.coverage_s

let forks (ctx : Experiments.Setup.t) =
  List.map Evaluator.fork ctx.Experiments.Setup.evaluators

(* From a ready context to a verified compact test set.  Every
   compaction and sweep runs on fresh forks of the evaluators as
   generation left them, so each repetition does the same work. *)
let round spec ?(executor = Engine.sequential) ?(reps = spec.phase_reps) ~seed
    (ctx : Experiments.Setup.t) sample_dict =
  let full = ctx.Experiments.Setup.dictionary in
  let progress, times = Common.fault_clock () in
  let run, generate_s =
    Common.timed (fun () ->
        Spans.timed "engine.run" (fun () ->
            Engine.run ?options:spec.options ~progress ~executor
              ~evaluators:ctx.Experiments.Setup.evaluators sample_dict))
  in
  let phase () =
    let evaluators = forks ctx in
    let c, dc =
      Common.timed (fun () ->
          Spans.timed "compactor.compact" (fun () ->
              Compactor.compact ~evaluators full run))
    in
    let tests = spec.coverage_tests ~seed ctx c in
    let evaluators = forks ctx in
    let cov, dv =
      Common.timed (fun () ->
          Spans.timed "coverage.evaluate" (fun () ->
              Coverage.evaluate ~evaluators full tests))
    in
    (c, cov, dc, dv, List.length tests)
  in
  let phases = List.init reps (fun _ -> phase ()) in
  let lines (c, cov, _, _, _) = Check.compact_lines c @ Check.coverage_lines cov in
  let ((c, cov, _, _, n_tests) as first) = List.hd phases in
  let repeatable = List.for_all (fun p -> lines p = lines first) phases in
  if not repeatable then Common.say "check: FAIL %s compaction is not repeatable" spec.name;
  let own =
    match spec.check c cov with
    | None -> 0
    | Some msg ->
        Common.say "check: FAIL %s %s" spec.name msg;
        1
  in
  let mean f = Stats.mean (List.map f phases) in
  {
    generate_s;
    compact_s = mean (fun (_, _, dc, _, _) -> dc);
    coverage_s = mean (fun (_, _, _, dv, _) -> dv);
    fault_times = times ();
    digest = Check.digest (Check.run_lines run @ lines first);
    failed = List.length run.Engine.failed_faults + Bool.to_int (not repeatable) + own;
    pairs = n_tests * Faults.Dictionary.size full;
    compaction_ratio = Compactor.compaction_ratio c;
    heap_mb = Common.heap_peak_mb ();
  }

(* Failed operations of rounds that must agree bit for bit. *)
let failures spec ~pins ~seed rs =
  let first = (List.hd rs).digest in
  List.fold_left
    (fun acc r -> acc + r.failed + if String.equal r.digest first then 0 else 1)
    (Common.check_digest ~pins ~workload:spec.name ~seed first)
    rs

(* Per round: every sampled fault, the repeatability and workload checks,
   and the digest. *)
let attempted ~n_faults rs = List.length rs * (n_faults + 3)

let inputs spec ~seed =
  let dict = spec.dictionary () in
  let sample = spec.sample ~seed dict in
  let sample_dict = Sampler.restrict dict sample in
  Common.say "%s: %d sampled faults: %s" spec.name (List.length sample)
    (String.concat " " (Sampler.ids sample_dict));
  sample_dict

(* The first round builds the base context, and every round runs on
   fresh forks of its evaluators, so all rounds do the same work from
   the same state.  The peak heap is read as the first round ends, so it
   covers one set-up and one round; the other set-ups are timed after
   the rounds.  Set-up is the median of [setup_reps]; the other times
   are means over the rounds. *)
let end_to_end spec ~seed ~seconds ~pins =
  let sample_dict = inputs spec ~seed in
  let setup () = Common.timed (fun () -> Spans.timed "experiments.setup" spec.setup) in
  let base = lazy (setup ()) in
  let fresh () =
    let ctx, _ = Lazy.force base in
    { ctx with Experiments.Setup.evaluators = forks ctx }
  in
  let rs = Common.rounds ~seconds (fun _ -> round spec ~seed (fresh ()) sample_dict) in
  (* from a compacted heap, as the first set-up started from a collected
     one: a millisecond set-up otherwise pays for the rounds' garbage *)
  Gc.compact ();
  let setups =
    snd (Lazy.force base) :: List.init (spec.setup_reps - 1) (fun _ -> snd (setup ()))
  in
  Common.say "%s: %d round(s), wall_s %s" spec.name (List.length rs)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" (wall r)) rs));
  let n = Faults.Dictionary.size sample_dict in
  let mean f = Stats.mean (List.map f rs) in
  let m = Common.m in
  {
    Common.metrics =
      [
        m "setup_s" (Stats.median setups) "s";
        m "wall_s" (mean wall) "s";
        m "generate_s" (mean (fun r -> r.generate_s)) "s";
        m "req_per_s" (float_of_int n /. mean (fun r -> r.generate_s)) "1/s";
        (* the first round's: later rounds only add garbage, and how many
           fit the window depends on the host's speed *)
        m "heap_peak_mb" (List.hd rs).heap_mb "MB";
      ];
    attempted = attempted ~n_faults:n rs;
    failed = failures spec ~pins ~seed rs;
  }

(* Traced run: a round untraced at jobs 1 (base of the overhead and of
   parallel efficiency), traced at jobs 1 (counters), and untraced at
   jobs 2 through Parallel.executor; then the serve probe and the
   fixed-input layer suite.  Set-up is the serial Amdahl term.  Each
   round compacts and sweeps once, which keeps the run well inside its
   time limit. *)
let layers spec ~seed ~pins =
  let sample_dict = inputs spec ~seed in
  let setup () = Spans.timed "experiments.setup" spec.setup in
  let ctx, setup_s = Common.timed setup in
  let base = round spec ~reps:1 ~seed ctx sample_dict in
  let traced, counters =
    Common.traced (fun () -> round spec ~reps:1 ~seed (setup ()) sample_dict)
  in
  let j2 =
    round spec ~executor:(Parallel.executor ~jobs:2) ~reps:1 ~seed (setup ())
      sample_dict
  in
  let rs = [ base; traced; j2 ] in
  let serve, serve_attempted, serve_failed = Serve_mix.probe ~seed in
  let m = Common.m in
  {
    Common.metrics =
      counters
      @ Common.fault_metrics traced.fault_times
      @ [
          m "engine.parallel_efficiency.j2" (base.generate_s /. (2. *. j2.generate_s)) "ratio";
          m "engine.amdahl_serial_share" (setup_s /. (setup_s +. base.generate_s)) "ratio";
          m "compactor.compact_s" base.compact_s "s";
          m "coverage.sweep_s" base.coverage_s "s";
          m "coverage.pairs_per_s" (float_of_int base.pairs /. base.coverage_s) "1/s";
          m "compactor.compaction_ratio" base.compaction_ratio "ratio";
          m "obs.trace_overhead" ((wall traced /. wall base) -. 1.) "ratio";
        ]
      @ serve @ Layers.suite ~seed;
    attempted = attempted ~n_faults:(Faults.Dictionary.size sample_dict) rs + serve_attempted;
    failed = failures spec ~pins ~seed rs + serve_failed;
  }
