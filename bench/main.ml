(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printed as report sections), then times the computational
   kernels behind each experiment with Bechamel. *)

open Bechamel
open Toolkit
open Testgen

let section id body =
  Printf.printf "==============================================================\n";
  Printf.printf "%s\n" id;
  Printf.printf "==============================================================\n";
  print_string body;
  print_newline ()

let progress ~done_ ~total ~fault_id =
  Printf.eprintf "  generation [%2d/%2d] %s\n%!" done_ total fault_id

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                           *)
(* ------------------------------------------------------------------ *)

(* Calls per second over a wall-clock window, after one warm-up call
   (plan compilation, caches). *)
let rate ~seconds f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (f ());
    incr n
  done;
  float_of_int !n /. (Unix.gettimeofday () -. t0)

let minor_words_per ?(reps = 100) f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let bitwise_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       a b

(* Every BENCH_*.json report carries the same provenance object —
   resolved once per process (Report.Provenance memoizes the git SHA,
   stamp and core count), so artifacts from one run are byte-identical
   in their provenance. *)
let provenance_json () = Report.Provenance.json ()

(* ------------------------------------------------------------------ *)
(* Reproduction reports                                                 *)
(* ------------------------------------------------------------------ *)

let run_reports ctx =
  (* the paper's tables and figures *)
  section "FIG1" (Experiments.Runs.fig1 ());
  section "TAB1" (Experiments.Runs.tab1 ());
  section "FIG234" (Experiments.Runs.fig234 ctx);
  section "FIG5" (Experiments.Runs.fig5 ctx);
  section "FIG6" (Experiments.Runs.fig6 ctx);
  section "FIG7" (Experiments.Runs.fig7 ());
  let run = Experiments.Runs.engine_run ~progress ctx in
  section "TAB2" (Experiments.Runs.tab2 ctx run);
  section "FIG8" (Experiments.Runs.fig8 ctx run);
  section "TAB3" (Experiments.Runs.tab3 ctx run);
  let compaction = Experiments.Runs.compact_run ~delta:0.1 ctx run in
  section "TAB4" (Experiments.Runs.render_tab4 ~delta:0.1 compaction);
  section "XBASE" (Experiments.Runs.xbase ctx run);
  (* extensions beyond the paper *)
  prerr_endline "running extension experiments...";
  section "XAC" (Experiments.Extensions.xac_report ());
  section "XIFA" (Experiments.Extensions.xifa_report ctx run compaction);
  section "XEQ" (Experiments.Extensions.xeq_report ctx run);
  section "XQ" (Experiments.Extensions.xq_report ctx compaction);
  section "XIMD" (Experiments.Extensions.ximd_report ctx)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the kernel behind each experiment                   *)
(* ------------------------------------------------------------------ *)

let make_tests ctx =
  let nl = Macros.Macro.nominal_netlist ctx.Experiments.Setup.macro in
  let sys = Circuit.Mna.build nl in
  let op = Circuit.Dc.operating_point sys ~time:`Dc in
  let ev1 = Experiments.Setup.evaluator ctx 1 in
  let ev3 = Experiments.Setup.evaluator ctx 3 in
  let ev4 = Experiments.Setup.evaluator ctx 4 in
  let bridge = Faults.Fault.bridge "n1" "vout" ~resistance:10e3 in
  let seeds c = Test_config.param_values_of_seed (Evaluator.config c) in
  let assemble () =
    Circuit.Mna.assemble sys ~x:op ~time:`Dc ~gmin:1e-12 ()
  in
  let a0, z0 = assemble () in
  let rng = Numerics.Rng.create 17L in
  let cluster_items =
    List.init 45 (fun i ->
        {
          Cluster.item_id = Printf.sprintf "f%d" i;
          location =
            [|
              Numerics.Rng.uniform rng ~lo:(-50e-6) ~hi:50e-6;
              Numerics.Rng.uniform rng ~lo:5e-6 ~hi:50e-6;
            |];
        })
  in
  let cluster_params =
    (Evaluator.config (Experiments.Setup.evaluator ctx 2)).Test_config.params
  in
  [
    (* substrate kernels *)
    Test.make ~name:"substrate:lu-factor-solve(26x26)"
      (Staged.stage (fun () -> Numerics.Mat.solve a0 z0));
    Test.make ~name:"substrate:mna-assemble"
      (Staged.stage (fun () -> assemble ()));
    Test.make ~name:"substrate:dc-operating-point"
      (Staged.stage (fun () -> Circuit.Dc.operating_point sys ~time:`Dc));
    (* TAB1/FIG1: configuration bookkeeping *)
    Test.make ~name:"tab1:describe-configurations"
      (Staged.stage (fun () ->
           List.map Test_config.describe Experiments.Iv_configs.all));
    (* FIG2-4: one THD evaluation = one tps-graph pixel *)
    Test.make ~name:"fig234:thd-evaluation"
      (Staged.stage (fun () ->
           Evaluator.sensitivity ev3 bridge (seeds ev3)));
    (* FIG5: box interpolation *)
    Test.make ~name:"fig5:box-interpolation"
      (Staged.stage (fun () -> Evaluator.box ev1 (seeds ev1)));
    (* FIG6/TAB2: the impact-convergence kernel: one dc-config sensitivity *)
    Test.make ~name:"tab2:dc-sensitivity-evaluation"
      (Staged.stage (fun () ->
           Evaluator.sensitivity ev1 bridge (seeds ev1)));
    (* TAB3/FIG8: step-response metric evaluation *)
    Test.make ~name:"tab3:step-response-evaluation"
      (Staged.stage (fun () ->
           Evaluator.sensitivity ev4 bridge (seeds ev4)));
    (* TAB4: clustering of the optimized tests *)
    Test.make ~name:"tab4:cluster-45-tests"
      (Staged.stage (fun () ->
           Cluster.group ~params:cluster_params cluster_items));
    (* XBASE: seed-test detection check *)
    Test.make ~name:"xbase:seed-detection-check"
      (Staged.stage (fun () ->
           Sensitivity.detects (Evaluator.sensitivity ev1 bridge (seeds ev1))));
  ]

let run_benchmarks ctx =
  let tests = make_tests ctx in
  let grouped = Test.make_grouped ~name:"atpg" ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Printf.printf "==============================================================\n";
  Printf.printf "BECHAMEL microbenchmarks (monotonic clock, ns/run)\n";
  Printf.printf "==============================================================\n";
  let clock = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      rows := (name, estimate) :: !rows)
    clock;
  List.iter
    (fun (name, ns) ->
      if ns < 1e3 then Printf.printf "  %-42s %10.1f ns\n" name ns
      else if ns < 1e6 then Printf.printf "  %-42s %10.2f us\n" name (ns /. 1e3)
      else Printf.printf "  %-42s %10.2f ms\n" name (ns /. 1e6))
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows)

(* ------------------------------------------------------------------ *)
(* Parallel scaling: the full generation run at several job counts      *)
(* ------------------------------------------------------------------ *)

(* Times the whole-dictionary generation run sequentially and on worker
   pools of increasing size, verifies every parallel run record against
   the sequential one (the determinism contract, checked on real work,
   not just unit fixtures), and writes the measurements to
   BENCH_parallel.json.  No JSON library is baked into the image, so the
   report is emitted by hand — the schema is flat. *)
let run_parallel_bench ctx =
  let host = Parallel.default_jobs () in
  let job_counts = List.sort_uniq Int.compare [ 1; 2; 4; host ] in
  let faults =
    List.length (Faults.Dictionary.entries ctx.Experiments.Setup.dictionary)
  in
  let timed jobs =
    let executor =
      if jobs = 1 then Engine.sequential else Parallel.executor ~jobs
    in
    Printf.eprintf "parallel bench: generation run at --jobs %d...\n%!" jobs;
    let t0 = Unix.gettimeofday () in
    let run = Experiments.Runs.engine_run ~executor ctx in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.eprintf "parallel bench: --jobs %d done in %.2f s\n%!" jobs dt;
    (jobs, run, dt)
  in
  let runs = List.map timed job_counts in
  let _, seq_run, seq_dt =
    List.find (fun (jobs, _, _) -> jobs = 1) runs
  in
  let fingerprint (run : Engine.run) =
    (Session.to_string run.Engine.results, run.Engine.rung_stats,
     run.Engine.recovered_count, List.length run.Engine.failed_faults)
  in
  let seq_fp = fingerprint seq_run in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"host_recommended_domains\": %d,\n" host);
  Buffer.add_string buf (Printf.sprintf "  \"dictionary_faults\": %d,\n" faults);
  Buffer.add_string buf "  \"runs\": [\n";
  List.iteri
    (fun i (jobs, run, dt) ->
      let identical = fingerprint run = seq_fp in
      if not identical then
        Printf.eprintf
          "parallel bench: WARNING --jobs %d diverged from sequential!\n%!"
          jobs;
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"jobs\": %d, \"wall_seconds\": %.6f, \"speedup\": %.3f, \
            \"fault_simulations\": %d, \"identical_to_sequential\": %b}%s\n"
           jobs dt (seq_dt /. Float.max 1e-9 dt)
           run.Engine.total_fault_simulations identical
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "  ]\n}\n";
  let path = "BENCH_parallel.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "parallel bench: wrote %s\n%!" path;
  (* One traced repeat of the parallel run: its Obs aggregate (span
     totals, solver/cache counters, per-fault evaluation counts) lands
     in BENCH_obs.json next to the timing report. *)
  Printf.eprintf "parallel bench: traced run at --jobs %d for %s...\n%!" host
    "BENCH_obs.json";
  Obs.enable ();
  let obs_json =
    Fun.protect ~finally:Obs.shutdown (fun () ->
        let run =
          Experiments.Runs.engine_run ~executor:(Parallel.executor ~jobs:host)
            ctx
        in
        if fingerprint run <> seq_fp then
          Printf.eprintf
            "parallel bench: WARNING traced run diverged from sequential!\n%!";
        Obs.aggregate_json ())
  in
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc "{\"provenance\": %s,\n \"aggregate\": %s}\n"
    (provenance_json ()) (String.trim obs_json);
  close_out oc;
  Printf.eprintf "parallel bench: wrote BENCH_obs.json\n%!";
  if List.exists (fun (_, run, _) -> fingerprint run <> seq_fp) runs then
    exit 1

(* ------------------------------------------------------------------ *)
(* Hot path: compiled restamp vs legacy build-per-probe                 *)
(* ------------------------------------------------------------------ *)

(* Measures the compile-once/restamp-many execution path against the
   legacy rebuild-everything path at three levels — the raw DC Newton
   solve, a whole DC observable probe, and the end-to-end generation
   run — plus allocation pressure per solve, and writes the figures to
   BENCH_hotpath.json.  [--smoke] shrinks the measurement windows and
   the end-to-end dictionary so CI can run it on every push. *)
let run_hotpath_bench ~fast ~smoke =
  let profile =
    if fast then Execute.fast_profile else Execute.default_profile
  in
  let window = if smoke then 0.2 else 1.0 in
  let target =
    Experiments.Setup.target_of_macro Macros.Iv_converter.macro
      Macros.Process.nominal
  in
  (* level 1: the bare Newton solve on the nominal MNA system *)
  let sys = Circuit.Mna.build target.Execute.netlist in
  let ws = Circuit.Mna.workspace sys in
  let solve_alloc () = Circuit.Dc.solve sys ~time:`Dc in
  let solve_ws () = Circuit.Dc.solve ~workspace:ws sys ~time:`Dc in
  prerr_endline "hotpath bench: DC Newton kernel...";
  let kernel_legacy = rate ~seconds:window solve_alloc in
  let kernel_compiled = rate ~seconds:window solve_ws in
  let kernel_legacy_words = minor_words_per solve_alloc in
  let kernel_compiled_words = minor_words_per solve_ws in
  (* level 2: the restamp-many DC Newton microbenchmark — a
     guess-chained stimulus sweep, the kernel inside Sweep.dc_transfer
     and every optimizer probe.  The legacy path rewrites the netlist,
     re-indexes it and reallocates the solver at every level; the
     compiled path restamps one prebuilt plan into one workspace. *)
  let source = target.Execute.stimulus_source in
  let n_levels = 128 in
  (* the DC-level configuration's parameter range: -50..50 uA *)
  let levels =
    Array.init n_levels (fun i ->
        -50e-6 +. (100e-6 *. float_of_int i /. float_of_int (n_levels - 1)))
  in
  let sweep_legacy () =
    let guess = ref None in
    Array.iter
      (fun v ->
        let nl =
          Execute.with_stimulus target.Execute.netlist ~source
            (Circuit.Waveform.Dc v)
        in
        let sys = Circuit.Mna.build nl in
        let report = Circuit.Dc.solve ?guess:!guess sys ~time:`Dc in
        guess := Some report.Circuit.Dc.solution)
      levels;
    !guess
  in
  let sweep_sys =
    Circuit.Mna.build
      (Execute.with_stimulus target.Execute.netlist ~source
         (Circuit.Waveform.Dc levels.(0)))
  in
  let sweep_ws = Circuit.Mna.workspace sweep_sys in
  let sweep_compiled () =
    let guess = ref None in
    Array.iter
      (fun v ->
        let restamp =
          {
            Circuit.Mna.stimulus = Some (source, Circuit.Waveform.Dc v);
            impact = None;
          }
        in
        let report =
          Circuit.Dc.solve ?guess:!guess ~workspace:sweep_ws ~restamp
            sweep_sys ~time:`Dc
        in
        guess := Some report.Circuit.Dc.solution)
      levels;
    !guess
  in
  let sweep_identical =
    match (sweep_legacy (), sweep_compiled ()) with
    | Some a, Some b -> bitwise_equal a b
    | _ -> false
  in
  if not sweep_identical then
    prerr_endline "hotpath bench: WARNING restamp sweep diverged from legacy!";
  prerr_endline "hotpath bench: DC Newton sweep kernel...";
  let per_solve x = x *. float_of_int n_levels in
  let dc_legacy = per_solve (rate ~seconds:window sweep_legacy) in
  let dc_compiled = per_solve (rate ~seconds:window sweep_compiled) in
  let dc_legacy_words =
    minor_words_per sweep_legacy /. float_of_int n_levels
  in
  let dc_compiled_words =
    minor_words_per sweep_compiled /. float_of_int n_levels
  in
  (* informational: one whole optimizer probe of the DC-levels
     configuration, cold solves included *)
  let config = Experiments.Iv_configs.config1 in
  let values = Test_param.seeds_of config.Test_config.params in
  let probe_legacy () = Execute.observables ~profile config target values in
  let plan = Execute.compile config target in
  let probe_compiled () =
    Execute.compiled_observables ~profile plan values
  in
  prerr_endline "hotpath bench: DC observable probe...";
  let probe_legacy_rate = rate ~seconds:window probe_legacy in
  let probe_compiled_rate = rate ~seconds:window probe_compiled in
  (* level 3: the generation run, legacy vs compiled evaluators *)
  let end_to_end mode =
    let ctx = Experiments.Setup.iv ~profile ~mode () in
    let ctx = if smoke then Experiments.Setup.reduced ctx ~n_faults:4 else ctx in
    let t0 = Unix.gettimeofday () in
    let run = Experiments.Runs.engine_run ctx in
    (Unix.gettimeofday () -. t0, run)
  in
  prerr_endline "hotpath bench: end-to-end generation (legacy)...";
  let legacy_dt, legacy_run = end_to_end `Legacy in
  prerr_endline "hotpath bench: end-to-end generation (compiled)...";
  let compiled_dt, compiled_run = end_to_end `Compiled in
  let identical =
    Session.to_string legacy_run.Engine.results
    = Session.to_string compiled_run.Engine.results
  in
  if not identical then
    prerr_endline "hotpath bench: WARNING compiled run diverged from legacy!";
  let dc_speedup = dc_compiled /. Float.max 1e-9 dc_legacy in
  let probe_speedup =
    probe_compiled_rate /. Float.max 1e-9 probe_legacy_rate
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"profile\": \"%s\",\n"
       (if fast then "fast" else "default"));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"newton_kernel\": {\"legacy_solves_per_sec\": %.1f, \
        \"compiled_solves_per_sec\": %.1f, \"speedup\": %.3f, \
        \"legacy_minor_words_per_solve\": %.1f, \
        \"compiled_minor_words_per_solve\": %.1f},\n"
       kernel_legacy kernel_compiled
       (kernel_compiled /. Float.max 1e-9 kernel_legacy)
       kernel_legacy_words kernel_compiled_words);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"dc_sweep\": {\"levels\": %d, \"legacy_solves_per_sec\": %.1f, \
        \"compiled_solves_per_sec\": %.1f, \"speedup\": %.3f, \
        \"legacy_minor_words_per_solve\": %.1f, \
        \"compiled_minor_words_per_solve\": %.1f, \
        \"identical_solutions\": %b},\n"
       n_levels dc_legacy dc_compiled dc_speedup dc_legacy_words
       dc_compiled_words sweep_identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"dc_probe\": {\"legacy_probes_per_sec\": %.1f, \
        \"compiled_probes_per_sec\": %.1f, \"speedup\": %.3f},\n"
       probe_legacy_rate probe_compiled_rate probe_speedup);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"end_to_end\": {\"faults\": %d, \"legacy_wall_seconds\": %.3f, \
        \"compiled_wall_seconds\": %.3f, \"speedup\": %.3f, \
        \"identical_results\": %b}\n"
       (List.length compiled_run.Engine.results)
       legacy_dt compiled_dt
       (legacy_dt /. Float.max 1e-9 compiled_dt)
       identical);
  Buffer.add_string buf "}\n";
  let path = "BENCH_hotpath.json" in
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.eprintf "hotpath bench: wrote %s\n%!" path;
  Printf.eprintf
    "hotpath bench: DC sweep %.0f -> %.0f solves/s (%.2fx), probe %.2fx, \
     end-to-end %.2fs -> %.2fs (%.2fx)\n%!"
    dc_legacy dc_compiled dc_speedup probe_speedup legacy_dt compiled_dt
    (legacy_dt /. Float.max 1e-9 compiled_dt);
  if not (identical && sweep_identical) then exit 1;
  (* the acceptance bar for the full (non-smoke) benchmark *)
  if (not smoke) && dc_speedup < 3. then begin
    Printf.eprintf
      "hotpath bench: FAIL DC sweep speedup %.2fx below the 3x bar\n%!"
      dc_speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fuzz campaign benchmark: chaos-harness throughput and health.       *)
(* ------------------------------------------------------------------ *)

(* [bench --fuzz [--smoke]]: run a pinned-seed campaign batch and write
   BENCH_fuzz.json with throughput, per-invariant tallies, a
   double-run byte-determinism check and a planted-violation self-test.
   Exits nonzero on any violation, nondeterminism or self-test miss, so
   CI can gate on the chaos harness staying healthy. *)
let run_fuzz_bench ~smoke =
  let campaigns = if smoke then 6 else 40 in
  let options =
    { Fuzz.Campaign.default_options with Fuzz.Campaign.campaigns; seed = 2026L }
  in
  let run_exn options =
    match Fuzz.Campaign.run options with
    | Ok r -> r
    | Error m ->
        Printf.eprintf "fuzz bench: %s\n%!" m;
        exit 1
  in
  prerr_endline "fuzz bench: campaign batch...";
  let t0 = Unix.gettimeofday () in
  let report = run_exn options in
  let elapsed = Unix.gettimeofday () -. t0 in
  let scenarios_per_sec = float_of_int report.Fuzz.Campaign.r_scenarios /. elapsed in
  (* byte-determinism: an identical second batch must render to the same
     JSON (report_json excludes jobs and timing by construction) *)
  prerr_endline "fuzz bench: determinism re-run...";
  let deterministic =
    String.equal
      (Fuzz.Campaign.report_json report)
      (Fuzz.Campaign.report_json (run_exn options))
  in
  (* planted-violation self-test: the harness must find the deliberate
     violation and shrink it to the exact minimal counterexample *)
  prerr_endline "fuzz bench: planted self-test...";
  let st_report =
    run_exn
      {
        options with
        Fuzz.Campaign.campaigns = (if smoke then 8 else 12);
        seed = 3L;
        checks = Some [ "session-roundtrip" ];
        self_test = true;
      }
  in
  let expected_shrunk =
    { Fuzz.Scenario.minimal with Fuzz.Scenario.fault_count = 2 }
  in
  let planted =
    List.filter
      (fun v -> String.equal v.Fuzz.Campaign.v_invariant "self-test")
      st_report.Fuzz.Campaign.r_violations
  in
  let self_test_ok =
    planted <> []
    && List.for_all
         (fun v -> v.Fuzz.Campaign.v_shrunk = expected_shrunk)
         planted
  in
  let shrink_steps =
    List.fold_left
      (fun acc v -> Int.max acc v.Fuzz.Campaign.v_shrink_steps)
      0 planted
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"campaigns\": %d, \"seed\": %Ld, \"smoke\": %b},\n"
       campaigns options.Fuzz.Campaign.seed smoke);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scenarios\": %d,\n  \"build_failures\": %d,\n  \
        \"elapsed_sec\": %.3f,\n  \"scenarios_per_sec\": %.2f,\n"
       report.Fuzz.Campaign.r_scenarios report.Fuzz.Campaign.r_build_failures
       elapsed scenarios_per_sec);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"checks\": {\"run\": %d, \"passed\": %d, \"skipped\": %d, \
        \"violations\": %d},\n"
       report.Fuzz.Campaign.r_checks_run report.Fuzz.Campaign.r_checks_passed
       report.Fuzz.Campaign.r_checks_skipped
       (List.length report.Fuzz.Campaign.r_violations));
  Buffer.add_string buf "  \"invariants\": {\n";
  let n_tallies = List.length report.Fuzz.Campaign.r_tallies in
  List.iteri
    (fun i t ->
      Buffer.add_string buf
        (Printf.sprintf
           "    \"%s\": {\"pass\": %d, \"skip\": %d, \"fail\": %d}%s\n"
           t.Fuzz.Campaign.t_name t.Fuzz.Campaign.t_pass
           t.Fuzz.Campaign.t_skip t.Fuzz.Campaign.t_fail
           (if i = n_tallies - 1 then "" else ",")))
    report.Fuzz.Campaign.r_tallies;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"deterministic_rerun\": %b,\n" deterministic);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"self_test\": {\"found_and_shrunk\": %b, \"shrink_steps\": %d}\n"
       self_test_ok shrink_steps);
  Buffer.add_string buf "}\n";
  let path = "BENCH_fuzz.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.eprintf
    "fuzz bench: %d scenario(s) in %.1fs (%.1f/s), %d violation(s); wrote %s\n%!"
    report.Fuzz.Campaign.r_scenarios elapsed scenarios_per_sec
    (List.length report.Fuzz.Campaign.r_violations)
    path;
  let fail msg =
    Printf.eprintf "fuzz bench: FAIL %s\n%!" msg;
    exit 1
  in
  if not (Fuzz.Campaign.clean report) then fail "campaign violations or build failures";
  if not deterministic then fail "re-run was not byte-identical";
  if not self_test_ok then fail "planted violation not found and shrunk"

(* ------------------------------------------------------------------ *)
(* Adjoint benchmark: gradient-mode generation vs the FD-free oracle.   *)
(* ------------------------------------------------------------------ *)

(* [bench --adjoint [--smoke]]: run the whole-dictionary generation
   twice on the DC-levels configurations (#1 Brent, #2 Powell — the two
   with an analytic adjoint gradient), once with the bracketing oracle
   and once in gradient mode, and write BENCH_adjoint.json with probe
   counts, wall-clock and the per-fault verdict-compat ratio.  The
   non-smoke acceptance bars are a >= 5x reduction in optimizer probes
   and verdict-compat 1.0; a compat miss exits nonzero even in smoke. *)
let run_adjoint_bench ~fast ~smoke =
  let profile =
    if fast then Execute.fast_profile else Execute.default_profile
  in
  prerr_endline "adjoint bench: calibrating tolerance boxes...";
  let ctx =
    Experiments.Setup.create ~profile ~macro:Macros.Iv_converter.macro
      ~configs:
        [ Experiments.Iv_configs.config1; Experiments.Iv_configs.config2 ]
      ()
  in
  let ctx = if smoke then Experiments.Setup.reduced ctx ~n_faults:8 else ctx in
  let faults =
    List.length (Faults.Dictionary.entries ctx.Experiments.Setup.dictionary)
  in
  let timed_run label options =
    Printf.eprintf "adjoint bench: generation run (%s)...\n%!" label;
    let t0 = Unix.gettimeofday () in
    let run = Experiments.Runs.engine_run ~options ctx in
    (run, Unix.gettimeofday () -. t0)
  in
  let oracle_run, oracle_dt = timed_run "oracle" Generate.default_options in
  let grad_run, grad_dt =
    timed_run "gradient"
      { Generate.default_options with Generate.use_gradient = true }
  in
  (* optimizer probes: every evaluator solve spent inside candidate
     optimization, summed over faults and configurations (the impact
     convergence downstream of it is shared by both modes) *)
  let probes (run : Engine.run) =
    List.fold_left
      (fun acc (r : Generate.result) ->
        List.fold_left
          (fun acc (c : Generate.candidate) ->
            acc + c.Generate.optimizer_evaluations)
          acc r.Generate.candidates)
      0 run.Engine.results
  in
  let oracle_probes = probes oracle_run in
  let grad_probes = probes grad_run in
  let reduction =
    float_of_int oracle_probes /. Float.max 1. (float_of_int grad_probes)
  in
  (* verdict compat: the detect verdict (unique vs undetectable) per
     fault must be identical.  The winning configuration may legitimately
     flip between near-tied candidates whose optima sit at slightly
     different points, so config agreement is reported separately and
     not gated. *)
  let flavour (r : Generate.result) =
    match r.Generate.outcome with
    | Generate.Unique _ -> "unique"
    | Generate.Undetectable _ -> "undetectable"
  in
  let mismatches =
    List.filter_map Fun.id
      (List.map2
         (fun (a : Generate.result) (b : Generate.result) ->
           if a.Generate.fault_id <> b.Generate.fault_id then
             Some
               (Printf.sprintf "fault order: %s vs %s" a.Generate.fault_id
                  b.Generate.fault_id)
           else if flavour a <> flavour b then
             Some
               (Printf.sprintf "%s: %s vs %s" a.Generate.fault_id (flavour a)
                  (flavour b))
           else None)
         oracle_run.Engine.results grad_run.Engine.results)
  in
  let compat =
    float_of_int (faults - List.length mismatches) /. float_of_int faults
  in
  let config_matches =
    List.fold_left2
      (fun acc (a : Generate.result) (b : Generate.result) ->
        if Generate.best_config_id a = Generate.best_config_id b then acc + 1
        else acc)
      0 oracle_run.Engine.results grad_run.Engine.results
  in
  List.iter
    (fun m -> Printf.eprintf "adjoint bench: verdict mismatch: %s\n%!" m)
    mismatches;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"profile\": \"%s\",\n"
       (if fast then "fast" else "default"));
  Buffer.add_string buf
    (Printf.sprintf "  \"faults\": %d,\n  \"configs\": [1, 2],\n" faults);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"oracle\": {\"optimizer_probes\": %d, \"wall_seconds\": %.3f},\n"
       oracle_probes oracle_dt);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"gradient\": {\"optimizer_probes\": %d, \"wall_seconds\": %.3f},\n"
       grad_probes grad_dt);
  Buffer.add_string buf
    (Printf.sprintf "  \"probe_reduction\": %.3f,\n" reduction);
  Buffer.add_string buf
    (Printf.sprintf "  \"wall_speedup\": %.3f,\n"
       (oracle_dt /. Float.max 1e-9 grad_dt));
  Buffer.add_string buf
    (Printf.sprintf "  \"verdict_compat\": %.4f,\n" compat);
  Buffer.add_string buf
    (Printf.sprintf "  \"winning_config_match\": %.4f,\n"
       (float_of_int config_matches /. float_of_int faults));
  Buffer.add_string buf "  \"mismatches\": [";
  List.iteri
    (fun i m ->
      Buffer.add_string buf
        (Printf.sprintf "%s\"%s\"" (if i = 0 then "" else ", ") m))
    mismatches;
  Buffer.add_string buf "]\n}\n";
  let path = "BENCH_adjoint.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.eprintf
    "adjoint bench: %d faults, probes %d -> %d (%.2fx), wall %.2fs -> %.2fs, \
     compat %.4f; wrote %s\n%!"
    faults oracle_probes grad_probes reduction oracle_dt grad_dt compat path;
  if List.length mismatches > 0 then begin
    Printf.eprintf "adjoint bench: FAIL verdict compat %.4f below 1.0\n%!"
      compat;
    exit 1
  end;
  (* the acceptance bar for the probe contract *)
  if (not smoke) && reduction < 5. then begin
    Printf.eprintf
      "adjoint bench: FAIL probe reduction %.2fx below the 5x bar\n%!"
      reduction;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Sparse-backend benchmark: dense vs sparse MNA engines.               *)
(* ------------------------------------------------------------------ *)

(* [bench --sparse [--smoke]]: three measurements against the dense
   baseline, written to BENCH_sparse.json.
   1. A fault-impact restamp sweep (assemble + factor + solve) on
      filter-chain macros of ~16, ~64 and ~128 unknowns; the non-smoke
      acceptance bar is a >= 5x sparse speedup at the largest size.
   2. A batched multi-fault DC-levels solve (one pattern-reuse
      refactorization per fault, blocked RHS sweep) against the
      sequential per-fault path, with a tolerance agreement check.
   3. The end-to-end generation run on the paper's 55-fault dictionary
      on both backends: detect verdicts and session bytes must be
      identical — gated even in smoke mode. *)
(* ---------------------------------------------------------------------- *)
(* serve bench: daemon throughput/latency plus the correctness gates      *)
(* that make concurrency trustworthy — verdict compatibility with the    *)
(* one-shot path, injected-session isolation and trace integrity.        *)
(* ---------------------------------------------------------------------- *)

let run_serve_bench ~smoke =
  let pid = Unix.getpid () in
  let socket = Printf.sprintf "/tmp/atpg-sb-%d.sock" pid in
  let spool = Printf.sprintf "/tmp/atpg-sb-%d.spool" pid in
  let trace = Printf.sprintf "/tmp/atpg-sb-%d.trace" pid in
  let budget = 3 in
  Obs.enable ~trace ();
  let server =
    match Serve.Server.start { Serve.Server.socket; budget; spool } with
    | Ok s -> s
    | Error m ->
        Printf.eprintf "serve bench: %s\n%!" m;
        exit 1
  in
  (* the workload: generate requests over several macros and both
     backends, every one at the fast profile with jobs=1 so the
     reference runs below pose bit-identical problems *)
  let base_specs =
    if smoke then
      [ ("iv", "dense", 4); ("rc10", "dense", 4); ("rc10", "sparse", 4) ]
    else
      [
        ("iv", "dense", 8);
        ("iv", "sparse", 8);
        ("rc10", "dense", 6);
        ("rc10", "sparse", 6);
        ("skc8", "dense", 6);
        ("skc8", "sparse", 6);
      ]
  in
  let repeats = if smoke then 2 else 2 in
  let specs =
    List.concat_map (fun s -> List.init repeats (fun _ -> s)) base_specs
  in
  let request_json ?(inject = []) ?(seed = 0L) (macro, backend, take) =
    Serve.Jsonl.Obj
      ([
         ("op", Serve.Jsonl.Str "generate");
         ("macro", Serve.Jsonl.Str macro);
         ("backend", Serve.Jsonl.Str backend);
         ("fast", Serve.Jsonl.Bool true);
         ("take", Serve.Jsonl.Num (float_of_int take));
         ("jobs", Serve.Jsonl.Num 1.);
       ]
      @
      match inject with
      | [] -> []
      | sp ->
          [
            ("inject",
             Serve.Jsonl.List (List.map (fun s -> Serve.Jsonl.Str s) sp));
            ("inject_seed", Serve.Jsonl.Num (Int64.to_float seed));
          ])
  in
  let queue = Queue.create () in
  List.iteri (fun i s -> Queue.add (i, s) queue) specs;
  let qmutex = Mutex.create () in
  let results =
    Array.make (List.length specs) (("", "", 0), None, 0.0, "w?")
  in
  let worker () =
    let rec go () =
      Mutex.lock qmutex;
      let job = Queue.take_opt queue in
      Mutex.unlock qmutex;
      match job with
      | None -> ()
      | Some (i, spec) ->
          let req = Printf.sprintf "w%d" i in
          let t0 = Unix.gettimeofday () in
          let reply =
            match Serve.Client.roundtrip ~socket ~req (request_json spec) with
            | Ok r -> Some r
            | Error m ->
                Printf.eprintf "serve bench: w%d: %s\n%!" i m;
                None
          in
          results.(i) <- (spec, reply, Unix.gettimeofday () -. t0, req);
          go ()
    in
    go ()
  in
  prerr_endline "serve bench: workload...";
  let wall0 = Unix.gettimeofday () in
  let threads = List.init budget (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. wall0 in
  (* isolation pair: one injected and one clean request running
     concurrently on the same problem — the clean verdicts must be
     unperturbed (this is the de-globalized failpoint seam under real
     concurrency) *)
  prerr_endline "serve bench: injected-isolation pair...";
  let iso_spec = ("rc10", "dense", 4) in
  let iso_clean = ref None and iso_inj = ref None in
  let iso_threads =
    [
      Thread.create
        (fun () ->
          iso_inj :=
            Result.to_option
              (Serve.Client.roundtrip ~socket ~req:"iso-inj"
                 (request_json
                    ~inject:[ "dc.no_convergence=0.5@3" ]
                    ~seed:7L iso_spec)))
        ();
      Thread.create
        (fun () ->
          iso_clean :=
            Result.to_option
              (Serve.Client.roundtrip ~socket ~req:"iso-cln"
                 (request_json iso_spec)))
        ();
    ]
  in
  List.iter Thread.join iso_threads;
  Serve.Server.stop server;
  Obs.shutdown ();
  (* reference verdicts: the same construction the CLI one-shot path
     uses, run in-process *)
  prerr_endline "serve bench: one-shot reference runs...";
  let reference = Hashtbl.create 8 in
  let reference_verdicts ((macro_name, backend_str, take) as key) =
    match Hashtbl.find_opt reference key with
    | Some v -> v
    | None ->
        let backend =
          if String.equal backend_str "sparse" then Circuit.Mna.Sparse
          else Circuit.Mna.Dense
        in
        let ctx, options =
          if String.equal macro_name "iv" then
            (Experiments.Setup.iv ~profile:Execute.fast_profile ~backend (), None)
          else
            let macro =
              match Macros.Registry.find macro_name with
              | Ok m -> m
              | Error e ->
                  Printf.eprintf "serve bench: %s\n%!" e;
                  exit 1
            in
            ( Experiments.Setup.probe ~profile:Execute.fast_profile ~backend
                ~macro (),
              Some Experiments.Setup.probe_options )
        in
        let ctx = Experiments.Setup.reduced ctx ~n_faults:take in
        let run =
          Experiments.Runs.engine_run ?options ~executor:Engine.sequential ctx
        in
        let v = Serve.Jsonl.to_string (Serve.Protocol.verdicts_of_run run) in
        Hashtbl.replace reference key v;
        v
  in
  let verdicts_of_reply reply =
    Option.bind (Serve.Client.result_event reply) (fun r ->
        Option.map Serve.Jsonl.to_string (Serve.Jsonl.member "verdicts" r))
  in
  let total = Array.length results in
  let completed = ref 0 and matched = ref 0 and dropped = ref 0 in
  let latencies = ref [] in
  Array.iter
    (fun (spec, reply, dt, req) ->
      match reply with
      | None -> incr dropped
      | Some reply -> (
          let accepted =
            List.exists
              (fun e -> Serve.Jsonl.str_member "ev" e = Some "accepted")
              reply.Serve.Client.events
          in
          let has_done =
            List.exists
              (fun e -> Serve.Jsonl.str_member "ev" e = Some "done")
              reply.Serve.Client.events
          in
          if accepted && not has_done then incr dropped
          else begin
            incr completed;
            latencies := dt :: !latencies;
            match verdicts_of_reply reply with
            | None ->
                Printf.eprintf "serve bench: %s: no verdicts in result\n%!" req
            | Some v ->
                if String.equal v (reference_verdicts spec) then incr matched
                else
                  Printf.eprintf "serve bench: %s: verdicts diverge\n%!" req
          end))
    results;
  let verdict_compat =
    if !completed = 0 then 0.0
    else float_of_int !matched /. float_of_int !completed
  in
  let iso_ok =
    match (!iso_clean, !iso_inj) with
    | Some clean, Some inj ->
        (match verdicts_of_reply clean with
        | Some v -> String.equal v (reference_verdicts iso_spec)
        | None -> false)
        && (inj.Serve.Client.status = 0 || inj.Serve.Client.status = 3)
    | _ -> false
  in
  (* trace integrity: every request-tagged span in the daemon's trace
     names a request we actually sent, and the concurrent phases left
     spans from more than one request *)
  let expected_reqs =
    "iso-inj" :: "iso-cln"
    :: List.init total (fun i -> Printf.sprintf "w%d" i)
  in
  let tagged = Hashtbl.create 16 in
  let foreign = ref 0 in
  (try
     let ic = open_in trace in
     (try
        while true do
          let line = input_line ic in
          match Serve.Jsonl.of_string line with
          | Ok json -> (
              match Serve.Jsonl.str_member "req" json with
              | Some r ->
                  if List.mem r expected_reqs then
                    Hashtbl.replace tagged r ()
                  else incr foreign
              | None -> ())
          | Error _ -> ()
        done
      with End_of_file -> ());
     close_in ic
   with Sys_error _ -> ());
  let trace_integrity = !foreign = 0 && Hashtbl.length tagged >= 2 in
  let percentile q =
    match List.sort Float.compare !latencies with
    | [] -> Float.nan
    | sorted ->
        let arr = Array.of_list sorted in
        let n = Array.length arr in
        arr.(Int.min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))
  in
  let p50 = percentile 0.50 *. 1000. in
  let p95 = percentile 0.95 *. 1000. in
  let p99 = percentile 0.99 *. 1000. in
  let throughput = float_of_int !completed /. Float.max 1e-9 wall in
  let stats = Serve.Server.stats server in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"config\": {\"smoke\": %b, \"budget\": %d, \"requests\": %d, \
        \"schema\": \"%s\"},\n"
       smoke budget total Serve.Protocol.schema);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"requests\": %d,\n  \"completed\": %d,\n  \
        \"dropped_but_accepted\": %d,\n  \"accepted\": %d,\n  \
        \"rejected\": %d,\n"
       total !completed !dropped stats.Serve.Server.st_accepted
       stats.Serve.Server.st_rejected);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"wall_seconds\": %.3f,\n  \"throughput_rps\": %.3f,\n"
       wall throughput);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n"
       p50 p95 p99);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"verdict_compat\": %.4f,\n  \"verdict_pairs\": %d,\n"
       verdict_compat !completed);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"injected_isolation\": %b,\n  \"trace_integrity\": %b\n}\n"
       iso_ok trace_integrity);
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ trace ];
  Printf.eprintf
    "serve bench: %d/%d completed, p50 %.1f ms, p99 %.1f ms, %.2f req/s, \
     verdict compat %.4f; wrote %s\n%!"
    !completed total p50 p99 throughput verdict_compat path;
  let fail msg =
    Printf.eprintf "serve bench: FAIL %s\n%!" msg;
    exit 1
  in
  if !dropped > 0 then
    fail (Printf.sprintf "%d accepted request(s) dropped" !dropped);
  if verdict_compat < 1.0 then
    fail (Printf.sprintf "verdict compat %.4f below 1.0" verdict_compat);
  if not iso_ok then fail "injected session perturbed a concurrent clean one";
  if not trace_integrity then fail "trace integrity violated";
  if not (Float.is_finite p99) then fail "p99 latency missing"

let run_sparse_bench ~fast ~smoke =
  let profile =
    if fast then Execute.fast_profile else Execute.default_profile
  in
  let window = if smoke then 0.2 else 1.0 in
  let gmin = Circuit.Dc.default_options.Circuit.Dc.gmin in
  (* 1: restamp sweep over an impact ladder on one stage resistor *)
  let impact_ladder =
    [| 10e3; 5e3; 2e3; 1e3; 500.; 8e3; 20e3; 100. |]
  in
  let restamp_row stages =
    let macro = Macros.Filter_chain.sk_chain ~stages in
    let nl = macro.Macros.Macro.build Macros.Process.nominal in
    let sweep backend =
      let sys = Circuit.Mna.build ~backend nl in
      let ws = Circuit.Mna.workspace sys in
      let x0 = Numerics.Vec.create (Circuit.Mna.size sys) 0. in
      let k = ref 0 in
      let cycle () =
        let r = impact_ladder.(!k mod Array.length impact_ladder) in
        incr k;
        Circuit.Mna.assemble_into sys ws ~x:x0 ~time:`Dc
          ~restamp:
            { Circuit.Mna.stimulus = None; impact = Some ("r1a", r) }
          ~gmin ();
        Circuit.Mna.ws_factor ws;
        Circuit.Mna.ws_solve_into ws ws.Circuit.Mna.w_z ws.Circuit.Mna.w_x_new
      in
      (sys, ws, rate ~seconds:window cycle)
    in
    Printf.eprintf "sparse bench: restamp sweep (%d stages, dense)...\n%!"
      stages;
    let dsys, _, dense_rate = sweep Circuit.Mna.Dense in
    Printf.eprintf "sparse bench: restamp sweep (%d stages, sparse)...\n%!"
      stages;
    let _, sws, sparse_rate = sweep Circuit.Mna.Sparse in
    let stats =
      match Circuit.Mna.ws_sparse_stats sws with
      | Some s -> s
      | None -> assert false
    in
    let speedup = sparse_rate /. Float.max 1e-9 dense_rate in
    Printf.eprintf
      "sparse bench: %d unknowns: dense %.1f/s, sparse %.1f/s (%.2fx), \
       reuses %d/%d\n\
       %!"
      (Circuit.Mna.size dsys) dense_rate sparse_rate speedup
      stats.Numerics.Smat.pattern_reuses
      (stats.Numerics.Smat.pattern_reuses
      + stats.Numerics.Smat.full_factorizations);
    ( macro.Macros.Macro.macro_name,
      Circuit.Mna.size dsys,
      dense_rate,
      sparse_rate,
      speedup,
      stats )
  in
  let rows = List.map restamp_row [ 4; 16; 32 ] in
  let _, _, _, _, top_speedup, _ = List.nth rows (List.length rows - 1) in
  (* 2: batched multi-fault DC levels vs the sequential path *)
  let batch_stages = 16 in
  let batch_macro = Macros.Filter_chain.sk_chain ~stages:batch_stages in
  let n_levels = 4 in
  let batch_config =
    Test_config.create ~id:950 ~name:"Sparse bench DC sweep"
      ~macro_type:batch_macro.Macros.Macro.macro_type ~control_node:"in"
      ~params:
        [
          Test_param.create ~name:"v" ~units:"V" ~lower:1.0 ~upper:4.0
            ~seed:2.5;
        ]
      ~analysis:
        (Test_config.Dc_levels
           (fun v ->
             List.init n_levels (fun k ->
                 Circuit.Waveform.Dc (v.(0) +. (0.25 *. float_of_int k)))))
      ~returns:Test_config.Per_component
      ~return_names:(List.init n_levels (Printf.sprintf "V(out)@%d"))
      ~accuracy_floor:(List.init n_levels (fun _ -> 1e-3))
      ~summary:"dc levels for the batched-solve benchmark"
  in
  let batch_ev =
    Evaluator.create ~profile ~backend:Circuit.Mna.Sparse batch_config
      ~nominal:
        (Experiments.Setup.target_of_macro batch_macro
           Macros.Process.nominal)
      ~box_model:(Tolerance.floor_only batch_config)
  in
  let base_fault = Faults.Fault.bridge "in" "s4o" ~resistance:10e3 in
  let batch_faults =
    Array.map (Faults.Fault.with_impact base_fault) impact_ladder
  in
  let values = Test_param.seeds_of batch_config.Test_config.params in
  Printf.eprintf "sparse bench: batched multi-fault solve...\n%!";
  let t0 = Unix.gettimeofday () in
  let batched =
    match
      Evaluator.batched_fault_sensitivities batch_ev ~faults:batch_faults
        ~points:[| values |]
    with
    | Some cells -> Array.map (fun row -> row.(0)) cells
    | None ->
        Printf.eprintf "sparse bench: FAIL batched path refused the plan\n%!";
        exit 1
  in
  let batched_dt = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let sequential =
    Array.map
      (fun f -> Evaluator.sensitivity_and_deviation batch_ev f values)
      batch_faults
  in
  let sequential_dt = Unix.gettimeofday () -. t0 in
  let max_diff =
    List.fold_left2
      (fun acc (sb, _) (ss, _) -> Float.max acc (Float.abs (sb -. ss)))
      0. (Array.to_list batched) (Array.to_list sequential)
  in
  let batch_tol = 1e-6 in
  Printf.eprintf
    "sparse bench: batch %d faults x %d levels: %.4fs vs %.4fs sequential, \
     max |dS| %.2e\n\
     %!"
    (Array.length batch_faults) n_levels batched_dt sequential_dt max_diff;
  (* 3: end-to-end generation, dense vs sparse *)
  let end_to_end backend =
    let ctx = Experiments.Setup.iv ~profile ~backend () in
    let ctx =
      if smoke then Experiments.Setup.reduced ctx ~n_faults:4 else ctx
    in
    let t0 = Unix.gettimeofday () in
    let run = Experiments.Runs.engine_run ctx in
    (Unix.gettimeofday () -. t0, run)
  in
  prerr_endline "sparse bench: end-to-end generation (dense)...";
  let dense_dt, dense_run = end_to_end Circuit.Mna.Dense in
  prerr_endline "sparse bench: end-to-end generation (sparse)...";
  let sparse_dt, sparse_run = end_to_end Circuit.Mna.Sparse in
  let n_faults = List.length dense_run.Engine.results in
  let flavour (r : Generate.result) =
    match r.Generate.outcome with
    | Generate.Unique _ -> "unique"
    | Generate.Undetectable _ -> "undetectable"
  in
  let verdict_matches =
    List.fold_left2
      (fun acc (a : Generate.result) (b : Generate.result) ->
        if
          a.Generate.fault_id = b.Generate.fault_id
          && flavour a = flavour b
        then acc + 1
        else acc)
      0 dense_run.Engine.results sparse_run.Engine.results
  in
  let verdict_compat = float_of_int verdict_matches /. float_of_int n_faults in
  let bytes_identical =
    Session.to_string dense_run.Engine.results
    = Session.to_string sparse_run.Engine.results
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"profile\": \"%s\",\n"
       (if fast then "fast" else "default"));
  Buffer.add_string buf "  \"restamp_sweep\": [\n";
  List.iteri
    (fun i (name, unknowns, dense_rate, sparse_rate, speedup, stats) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"macro\": \"%s\", \"unknowns\": %d, \"dense_per_sec\": \
            %.1f, \"sparse_per_sec\": %.1f, \"speedup\": %.3f, \
            \"sparse_full_factorizations\": %d, \"sparse_pattern_reuses\": \
            %d, \"factor_nnz\": %d}%s\n"
           name unknowns dense_rate sparse_rate speedup
           stats.Numerics.Smat.full_factorizations
           stats.Numerics.Smat.pattern_reuses stats.Numerics.Smat.factor_nnz
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"factorization_speedup_largest\": %.3f,\n" top_speedup);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"batched\": {\"macro\": \"%s\", \"faults\": %d, \"levels\": %d, \
        \"sequential_seconds\": %.4f, \"batched_seconds\": %.4f, \
        \"speedup\": %.3f, \"max_abs_diff\": %.3e, \"agrees\": %b},\n"
       batch_macro.Macros.Macro.macro_name (Array.length batch_faults)
       n_levels sequential_dt batched_dt
       (sequential_dt /. Float.max 1e-9 batched_dt)
       max_diff
       (max_diff <= batch_tol));
  Buffer.add_string buf
    (Printf.sprintf
       "  \"generation\": {\"faults\": %d, \"dense_seconds\": %.3f, \
        \"sparse_seconds\": %.3f, \"verdict_compat\": %.4f, \
        \"identical_session_bytes\": %b}\n"
       n_faults dense_dt sparse_dt verdict_compat bytes_identical);
  Buffer.add_string buf "}\n";
  let path = "BENCH_sparse.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.eprintf
    "sparse bench: largest-size speedup %.2fx, verdict compat %.4f, \
     session bytes identical %b; wrote %s\n%!"
    top_speedup verdict_compat bytes_identical path;
  let fail msg =
    Printf.eprintf "sparse bench: FAIL %s\n%!" msg;
    exit 1
  in
  if not bytes_identical then fail "session bytes differ across backends";
  if verdict_compat < 1.0 then
    fail (Printf.sprintf "verdict compat %.4f below 1.0" verdict_compat);
  if max_diff > batch_tol then
    fail
      (Printf.sprintf "batched sensitivities diverged (max |dS| %.2e)"
         max_diff);
  if (not smoke) && top_speedup < 5. then
    fail
      (Printf.sprintf "factorization speedup %.2fx below the 5x bar"
         top_speedup)

(* Config-major batched fault evaluation vs the sequential reference
   path (ISSUE 10).  Same macro, same dictionary, same tests — the only
   difference is [~batching] on the evaluators, so any divergence in
   verdicts or session bytes is a batching bug, not a workload one. *)
let run_batch_bench ~fast ~smoke =
  let profile =
    if fast then Execute.fast_profile else Execute.default_profile
  in
  let macro =
    match Macros.Registry.find "skc8" with
    | Ok m -> m
    | Error e ->
        Printf.eprintf "batch bench: FAIL %s\n%!" e;
        exit 1
  in
  let context ~batching backend =
    let ctx =
      Experiments.Setup.probe ~profile ~batching ~backend ~levels:4 ~macro ()
    in
    if smoke then Experiments.Setup.reduced ctx ~n_faults:8 else ctx
  in
  (* A coverage workload denser than the seed set: [grid] points per
     configuration spread across each parameter window, so every
     config-major batch carries several right-hand-side columns. *)
  let grid = if smoke then 2 else 4 in
  let tests_of configs =
    List.concat_map
      (fun (c : Test_config.t) ->
        List.init grid (fun g ->
            let frac = float_of_int (g + 1) /. float_of_int (grid + 1) in
            let params =
              Array.of_list
                (List.map
                   (fun (p : Test_param.t) ->
                     p.Test_param.lower
                     +. (frac *. (p.Test_param.upper -. p.Test_param.lower)))
                   c.Test_config.params)
            in
            {
              Coverage.test_label =
                Printf.sprintf "tc%d-g%d" c.Test_config.config_id g;
              test_config_id = c.Test_config.config_id;
              test_params = params;
            }))
      configs
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let reports_identical (a : Coverage.report) (b : Coverage.report) =
    List.length a.Coverage.detections = List.length b.Coverage.detections
    && List.for_all2
         (fun (da : Coverage.detection) (db : Coverage.detection) ->
           da.Coverage.det_fault_id = db.Coverage.det_fault_id
           && da.Coverage.detected_by = db.Coverage.detected_by
           && Int64.equal
                (Int64.bits_of_float da.Coverage.best_sensitivity)
                (Int64.bits_of_float db.Coverage.best_sensitivity))
         a.Coverage.detections b.Coverage.detections
  in
  let flavour (r : Generate.result) =
    match r.Generate.outcome with
    | Generate.Unique _ -> "unique"
    | Generate.Undetectable _ -> "undetectable"
  in
  let backend_row backend =
    let backend_name =
      match backend with
      | Circuit.Mna.Dense -> "dense"
      | Circuit.Mna.Sparse -> "sparse"
    in
    let seq = context ~batching:false backend in
    let bat = context ~batching:true backend in
    let tests = tests_of seq.Experiments.Setup.configs in
    let n_tests = List.length tests in
    let n_faults = Faults.Dictionary.size seq.Experiments.Setup.dictionary in
    let coverage ctx =
      Coverage.evaluate ~evaluators:ctx.Experiments.Setup.evaluators
        ctx.Experiments.Setup.dictionary tests
    in
    (* warm both contexts once so plan compilation is off the clock *)
    Printf.eprintf
      "batch bench: %s coverage sweep (%d faults x %d tests)...\n%!"
      backend_name n_faults n_tests;
    ignore (coverage seq : Coverage.report);
    ignore (coverage bat : Coverage.report);
    let stats0 = Evaluator.batch_stats () in
    let seq_cov_dt, seq_report = time (fun () -> coverage seq) in
    let bat_cov_dt, bat_report = time (fun () -> coverage bat) in
    let cov_identical = reports_identical seq_report bat_report in
    let cov_speedup = seq_cov_dt /. Float.max 1e-9 bat_cov_dt in
    Printf.eprintf
      "batch bench: %s coverage %.3fs sequential vs %.3fs batched (%.2fx), \
       identical %b\n\
       %!"
      backend_name seq_cov_dt bat_cov_dt cov_speedup cov_identical;
    Printf.eprintf "batch bench: %s end-to-end generation...\n%!" backend_name;
    let engine ctx =
      Experiments.Runs.engine_run ~options:Experiments.Setup.probe_options ctx
    in
    let seq_run_dt, seq_run = time (fun () -> engine seq) in
    let bat_run_dt, bat_run = time (fun () -> engine bat) in
    let n_results = List.length seq_run.Engine.results in
    let verdict_matches =
      List.fold_left2
        (fun acc (a : Generate.result) (b : Generate.result) ->
          if a.Generate.fault_id = b.Generate.fault_id && flavour a = flavour b
          then acc + 1
          else acc)
        0 seq_run.Engine.results bat_run.Engine.results
    in
    let verdict_compat =
      float_of_int verdict_matches /. float_of_int (max 1 n_results)
    in
    let bytes_identical =
      Session.to_string seq_run.Engine.results
      = Session.to_string bat_run.Engine.results
    in
    Printf.eprintf "batch bench: %s compaction...\n%!" backend_name;
    let compact ctx run =
      Compactor.compact ~evaluators:ctx.Experiments.Setup.evaluators
        ctx.Experiments.Setup.dictionary run
    in
    let seq_cmp_dt, seq_cmp = time (fun () -> compact seq seq_run) in
    let bat_cmp_dt, bat_cmp = time (fun () -> compact bat bat_run) in
    let compact_identical =
      List.length seq_cmp.Compactor.compact_tests
      = List.length bat_cmp.Compactor.compact_tests
      && List.for_all2
           (fun (a : Compactor.compact_test) (b : Compactor.compact_test) ->
             a.Compactor.ct_label = b.Compactor.ct_label
             && a.Compactor.ct_fault_ids = b.Compactor.ct_fault_ids
             && bitwise_equal a.Compactor.ct_params b.Compactor.ct_params)
           seq_cmp.Compactor.compact_tests bat_cmp.Compactor.compact_tests
      && seq_cmp.Compactor.coverage.Coverage.covered
         = bat_cmp.Compactor.coverage.Coverage.covered
    in
    let stats1 = Evaluator.batch_stats () in
    Printf.eprintf
      "batch bench: %s generation %.3fs vs %.3fs, compaction %.3fs vs \
       %.3fs, verdicts %.4f, bytes %b\n\
       %!"
      backend_name seq_run_dt bat_run_dt seq_cmp_dt bat_cmp_dt verdict_compat
      bytes_identical;
    ( backend_name,
      n_faults,
      n_tests,
      (seq_cov_dt, bat_cov_dt, cov_speedup, cov_identical),
      (seq_run_dt, bat_run_dt, verdict_compat, bytes_identical),
      (seq_cmp_dt, bat_cmp_dt, compact_identical),
      ( stats1.Evaluator.faults_batched - stats0.Evaluator.faults_batched,
        stats1.Evaluator.fallback_seq - stats0.Evaluator.fallback_seq,
        stats1.Evaluator.panels - stats0.Evaluator.panels ) )
  in
  let rows = List.map backend_row [ Circuit.Mna.Dense; Circuit.Mna.Sparse ] in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"provenance\": %s,\n" (provenance_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"profile\": \"%s\",\n"
       (if fast then "fast" else "default"));
  Buffer.add_string buf
    (Printf.sprintf "  \"macro\": \"%s\",\n" macro.Macros.Macro.macro_name);
  Buffer.add_string buf "  \"backends\": [\n";
  List.iteri
    (fun i
         ( name,
           n_faults,
           n_tests,
           (seq_cov, bat_cov, cov_speedup, cov_identical),
           (seq_run, bat_run, verdict_compat, bytes_identical),
           (seq_cmp, bat_cmp, compact_identical),
           (faults_batched, fallback_seq, panels) ) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"backend\": \"%s\", \"faults\": %d, \"tests\": %d,\n\
           \     \"coverage\": {\"sequential_seconds\": %.4f, \
            \"batched_seconds\": %.4f, \"speedup\": %.3f, \
            \"identical_reports\": %b},\n\
           \     \"generation\": {\"sequential_seconds\": %.4f, \
            \"batched_seconds\": %.4f, \"speedup\": %.3f, \
            \"verdict_compat\": %.4f, \"identical_session_bytes\": %b},\n\
           \     \"compaction\": {\"sequential_seconds\": %.4f, \
            \"batched_seconds\": %.4f, \"speedup\": %.3f, \
            \"identical_compact_sets\": %b},\n\
           \     \"batch_counters\": {\"faults_batched\": %d, \
            \"fallback_seq\": %d, \"panels\": %d}}%s\n"
           name n_faults n_tests seq_cov bat_cov cov_speedup cov_identical
           seq_run bat_run
           (seq_run /. Float.max 1e-9 bat_run)
           verdict_compat bytes_identical seq_cmp bat_cmp
           (seq_cmp /. Float.max 1e-9 bat_cmp)
           compact_identical faults_batched fallback_seq panels
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ],\n";
  let cov_speedup_min =
    List.fold_left
      (fun acc (_, _, _, (_, _, s, _), _, _, _) -> Float.min acc s)
      infinity rows
  in
  Buffer.add_string buf
    (Printf.sprintf "  \"coverage_speedup_min\": %.3f\n" cov_speedup_min);
  Buffer.add_string buf "}\n";
  let path = "BENCH_batch.json" in
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.eprintf
    "batch bench: coverage speedup min %.2fx across backends; wrote %s\n%!"
    cov_speedup_min path;
  let fail msg =
    Printf.eprintf "batch bench: FAIL %s\n%!" msg;
    exit 1
  in
  List.iter
    (fun ( name,
           _,
           _,
           (_, _, _, cov_identical),
           (_, _, verdict_compat, bytes_identical),
           (_, _, compact_identical),
           (faults_batched, _, panels) ) ->
      if not cov_identical then
        fail (Printf.sprintf "%s: coverage reports differ" name);
      if verdict_compat < 1.0 then
        fail
          (Printf.sprintf "%s: verdict compat %.4f below 1.0" name
             verdict_compat);
      if not bytes_identical then
        fail (Printf.sprintf "%s: session bytes differ" name);
      if not compact_identical then
        fail (Printf.sprintf "%s: compact test sets differ" name);
      if faults_batched = 0 then
        fail (Printf.sprintf "%s: batched path never engaged" name);
      if panels = 0 then
        fail (Printf.sprintf "%s: no factorization panels recorded" name))
    rows;
  if (not smoke) && cov_speedup_min < 3. then
    fail
      (Printf.sprintf "coverage speedup %.2fx below the 3x bar"
         cov_speedup_min)

let () =
  let fast = Array.exists (String.equal "--fast") Sys.argv in
  let reports_only = Array.exists (String.equal "--reports-only") Sys.argv in
  let bench_only = Array.exists (String.equal "--bench-only") Sys.argv in
  let parallel = Array.exists (String.equal "--parallel") Sys.argv in
  let hotpath = Array.exists (String.equal "--hotpath") Sys.argv in
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  let fuzz = Array.exists (String.equal "--fuzz") Sys.argv in
  let adjoint = Array.exists (String.equal "--adjoint") Sys.argv in
  let sparse = Array.exists (String.equal "--sparse") Sys.argv in
  let serve = Array.exists (String.equal "--serve") Sys.argv in
  let batch = Array.exists (String.equal "--batch") Sys.argv in
  if serve then run_serve_bench ~smoke
  else if batch then run_batch_bench ~fast ~smoke
  else if sparse then run_sparse_bench ~fast ~smoke
  else if adjoint then run_adjoint_bench ~fast ~smoke
  else if fuzz then run_fuzz_bench ~smoke
  else if hotpath then run_hotpath_bench ~fast ~smoke
  else begin
    let profile =
      if fast then Execute.fast_profile else Execute.default_profile
    in
    prerr_endline "calibrating tolerance boxes...";
    let ctx = Experiments.Setup.iv ~profile () in
    if parallel then run_parallel_bench ctx
    else begin
      if not bench_only then run_reports ctx;
      if not reports_only then run_benchmarks ctx
    end
  end
