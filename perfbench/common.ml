(* Timing, round scheduling and counter-derived layer metrics shared by
   the workloads. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let m = Metric.make

(* Scratch directory for sockets and the written-out span file, inside
   the working directory the benchmark is started from. *)
let out_dir = ".perfbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* Repeat [round i] while the time measured so far plus half the last
   round still fits in [seconds]: at least two rounds, so the check that
   rounds agree always compares two, at most 64, and the rounds fill the
   window to within half a round whatever the host's speed.  A faster
   program runs more rounds in the same window.  The batch workloads
   report means over rounds: the host's speed drifts over tens of
   seconds, and the mean weighs the whole window alike. *)
let rounds ~seconds round =
  let rec go i spent acc =
    (* every round starts from a collected heap, so the peak heap is
       the peak of one round rather than of the garbage of all before *)
    Gc.full_major ();
    let r, dt = timed (fun () -> round i) in
    let spent = spent +. dt and acc = r :: acc in
    if i + 1 >= 64 || (i >= 1 && spent +. (dt /. 2.) > seconds) then List.rev acc
    else go (i + 1) spent acc
  in
  go 0 0. []

(* Median seconds per call of [f] over [batches] timed batches, each
   long enough ([min_batch] seconds) for the clock to resolve it. *)
let per_call ?(batches = 11) ?(min_batch = 0.002) f =
  ignore (Sys.opaque_identity (f ()));
  let batch k =
    snd (timed (fun () -> for _ = 1 to k do ignore (Sys.opaque_identity (f ())) done))
  in
  let rec size k = if k >= 1 lsl 20 || batch k >= min_batch then k else size (2 * k) in
  let k = size 1 in
  Stats.median (List.init batches (fun _ -> batch k /. float_of_int k))

let minor_words_per ?(reps = 50) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* Per-fault wall time from the engine's progress callback: the gap
   between consecutive emissions (the run is sequential where this is
   read). *)
let fault_clock () =
  let last = ref (now ()) and acc = ref [] in
  let progress ~done_:_ ~total:_ ~fault_id:_ =
    let t = now () in
    acc := (t -. !last) :: !acc;
    last := t
  in
  (progress, fun () -> List.rev !acc)

(* The layer metrics the program's own Obs counters and spans explain,
   read after a traced stretch of work. *)
let counter_metrics () =
  let cs = Obs.counters () in
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name cs)) in
  let span name =
    match List.find_opt (fun s -> s.Obs.span_name = name) (Obs.span_stats ()) with
    | Some s -> s.Obs.span_seconds
    | None -> 0.
  in
  let r = Stats.ratio in
  let solves = c "solver.dc.solves" and evals = c "evaluator.fault_evaluations" in
  let hits = c "evaluator.nominal_cache.hits" and misses = c "evaluator.nominal_cache.misses" in
  let phits = c "evaluator.plan_cache.hits" and pmisses = c "evaluator.plan_cache.misses" in
  let batched = c "evaluator.batch.faults_batched" and fallback = c "evaluator.batch.fallback_seq" in
  [
    m "circuit.newton_per_solve" (r (c "solver.dc.newton_iterations") solves) "count";
    m "circuit.lu_per_eval" (r (c "solver.dc.lu_factorizations") evals) "count";
    m "circuit.gmin_steps_per_solve" (r (c "solver.dc.gmin_steps") solves) "count";
    m "circuit.dc_failure_ratio" (r (c "solver.dc.failures") solves) "ratio";
    m "evaluator.nominal_hit_rate" (r hits (hits +. misses)) "ratio";
    m "evaluator.plan_hit_rate" (r phits (phits +. pmisses)) "ratio";
    m "evaluator.evals_per_fault" (r evals (c "engine.faults")) "count";
    m "evaluator.batched_share" (r batched (batched +. fallback)) "ratio";
    m "generate.impact_share" (r (span "generate.impact") (span "engine.run")) "ratio";
  ]

(* Run [f] with the program's tracing on, and return its result with the
   counter metrics of exactly that stretch. *)
let traced f =
  Obs.enable ();
  Fun.protect ~finally:Obs.shutdown (fun () ->
      let r = f () in
      (r, counter_metrics ()))

let fault_metrics times =
  [
    m "engine.fault_s.p50" (Stats.median times) "s";
    m "engine.fault_s.max" (List.fold_left Float.max 0. times) "s";
  ]

let ms x = x *. 1000.

(* What one workload run hands back to main. *)
type outcome = {
  metrics : Metric.t list;
  attempted : int;  (** operations checked: faults, requests, digests *)
  failed : int;  (** quarantined faults, check mismatches, bad replies *)
}

let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* The digest check every run makes; counts one operation, failed on a
   mismatch.  An unpinned seed is still checked for self-consistency by
   the caller, and says so. *)
let check_digest ~pins ~workload ~seed digest =
  match Check.verify pins ~workload ~seed digest with
  | Check.Match ->
      say "check: %s seed %d digest %s matches its pin" workload seed digest;
      0
  | Check.Unpinned ->
      say "check: %s seed %d digest %s (no pin for this seed)" workload seed digest;
      0
  | Check.Mismatch expected ->
      say "check: FAIL %s seed %d digest %s, pinned %s" workload seed digest expected;
      1

let tests_of (c : Testgen.Compactor.result) =
  List.map
    (fun (ct : Testgen.Compactor.compact_test) ->
      {
        Testgen.Coverage.test_label = ct.ct_label;
        test_config_id = ct.ct_config_id;
        test_params = ct.ct_params;
      })
    c.Testgen.Compactor.compact_tests
