(* Adjoint sensitivities against a finite-difference oracle: the
   transpose-solve primitives, the execute-level observable gradients
   (parameter and fault-impact), the tolerance-box gradient, and the
   full evaluator chain dS/dp across the rc_ladder, ota, sallen_key and
   IV-converter macros — verified to machine precision with a step-size
   sweep whose error curve brackets the adjoint value. *)

open Testgen
module Mat = Numerics.Mat
module Cmat = Numerics.Cmat
module Vec = Numerics.Vec
module Rng = Numerics.Rng
module Scenario = Fuzz.Scenario

let bits = Int64.bits_of_float

(* --------------------------------------------- transpose primitives *)

(* Diagonally dominant random system: well-conditioned, never singular,
   so the property exercises arithmetic rather than pivoting luck. *)
let random_system rng n =
  let a = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set a i j (Rng.uniform rng ~lo:(-1.) ~hi:1.)
    done;
    Mat.add_to a i i (float_of_int n)
  done;
  a

let prop_mat_transpose =
  QCheck.Test.make ~name:"Mat.solve_transpose_into solves A^T x = b"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_range 1 9))
    (fun (seed, n) ->
      let rng = Rng.create (Int64.of_int ((seed * 13) + n)) in
      let a = random_system rng n in
      let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.) ~hi:2.) in
      let ws = Mat.lu_workspace n in
      Mat.factor_in_place a ws;
      let x = Array.make n 0. in
      Mat.solve_transpose_into ws b x;
      let at = Mat.transpose a in
      let residual = Vec.sub (Mat.mul_vec at x) b in
      let reference = Mat.lu_solve (Mat.lu_factor at) b in
      Array.for_all (fun r -> Float.abs r <= 1e-9) residual
      && Array.for_all
           (fun d -> Float.abs d <= 1e-9)
           (Vec.sub x reference))

(* ------------------------------------------------------- fixtures *)

(* The default solver tolerance (abstol 1e-9) quantizes the computed
   sensitivity surface at a level a central difference would amplify by
   1/h; a machine-precision gradient check needs the Newton fixed point
   resolved much tighter than the 1e-6 bar. *)
let tight_profile =
  {
    Execute.fast_profile with
    Execute.dc_options =
      {
        Circuit.Dc.default_options with
        Circuit.Dc.abstol = 1e-12;
        reltol = 1e-10;
      };
  }

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let iv_corners =
  lazy
    (List.map
       (Experiments.Setup.target_of_macro Macros.Iv_converter.macro)
       (Macros.Process.corners ()))

let iv_evaluator ?(box = `Floor) config =
  let box_model =
    match box with
    | `Floor -> Tolerance.floor_only config
    | `Calibrated ->
        Tolerance.calibrate ~profile:tight_profile config ~nominal:iv_target
          ~corners:(Lazy.force iv_corners) ()
  in
  Evaluator.create ~profile:tight_profile ~mode:`Compiled config
    ~nominal:iv_target ~box_model

let iv_ev1 = lazy (iv_evaluator Experiments.Iv_configs.config1)
let iv_ev2 = lazy (iv_evaluator Experiments.Iv_configs.config2)
let bridge = Faults.Fault.bridge "n1" "vout" ~resistance:10e3
let pinhole = Faults.Fault.pinhole "m6" ~r_shunt:2e3

(* ------------------------------------------------ the FD harness *)

let rel_err got expected =
  Float.abs (got -. expected) /. Float.max 1. (Float.abs expected)

(* Central difference of [eval] along parameter [d].  [None] when a
   stencil point hits the detected sentinel (the cost surface cliffs to
   -1e6 where the faulty solve fails — not differentiable). *)
let fd_slope eval (values : Vec.t) d h =
  let at x =
    let v = Array.copy values in
    v.(d) <- v.(d) +. x;
    eval v
  in
  let fp = at h and fm = at (-.h) in
  if
    fp = Evaluator.detected_sentinel
    || fm = Evaluator.detected_sentinel
  then None
  else Some ((fp -. fm) /. (2. *. h))

(* Best agreement between the adjoint value [grad] and a step-size
   sweep of central differences.  [None] asks the caller to skip the
   point: a sentinel stencil, or two mid-sweep steps that disagree —
   the signature of a kink (min/abs/argmax switch, box lattice edge,
   level-clamp) between the stencil points, where no finite difference
   converges to the one-sided adjoint. *)
let fd_check eval values d ~grad ~scale =
  let fd h = fd_slope eval values d (h *. scale) in
  match (fd 1e-3, fd 1e-4) with
  | Some f1, Some f2
    when Float.abs (f1 -. f2) <= 1e-3 *. Float.max 1. (Float.abs f1) ->
      let errs =
        List.filter_map
          (fun h -> Option.map (fun f -> rel_err f grad) (fd h))
          [ 3e-2; 1e-2; 3e-3; 1e-3; 3e-4; 1e-4; 3e-5; 1e-5 ]
      in
      Some (List.fold_left Float.min infinity errs)
  | _ -> None

let grad_tolerance = 1e-6

(* The FD oracle's noise floor is absolute — solver tolerance divided
   by the step — while the bar is relative to the gradient.  Deep in
   the detection region (|S| in the hundreds) the difference quotient
   cancels catastrophically and no step certifies 1e-6, adjoint or
   not.  A genuinely wrong gradient (sign, scale, missing chain term)
   misses by O(1), so points whose best agreement lands between the
   certification bar and the wrongness bar are oracle-limited: counted
   as skips, like kinks. *)
let wrongness_bar = 1e-3

type verdict = Certified | Oracle_limited | Wrong of float

let classify = function
  | None -> Oracle_limited
  | Some err ->
      if err <= grad_tolerance then Certified
      else if err <= wrongness_bar then Oracle_limited
      else Wrong err

(* Check every partial of [fault] at [values]; returns how many were
   verified vs skipped, failing the test on a bad partial.  Also pins
   the contract that the gradient's value part is bit-identical to the
   scalar sensitivity path. *)
let check_gradient_at label ev fault values ~checked ~skipped =
  let config = Evaluator.config ev in
  let lower, upper = Test_param.bounds_of config.Test_config.params in
  match Evaluator.sensitivity_gradient ev fault values with
  | None -> Alcotest.failf "%s: configuration must admit the adjoint" label
  | Some (s, grad) ->
      Alcotest.(check int64)
        (label ^ ": value part bit-identical to Evaluator.sensitivity")
        (bits (Evaluator.sensitivity ev fault values))
        (bits s);
      if s = Evaluator.detected_sentinel then incr skipped
      else
        Array.iteri
          (fun d g ->
            let scale = upper.(d) -. lower.(d) in
            match
              classify
                (fd_check
                   (fun v -> Evaluator.sensitivity ev fault v)
                   values d ~grad:g ~scale)
            with
            | Certified -> incr checked
            | Oracle_limited -> incr skipped
            | Wrong err ->
                Alcotest.failf
                  "%s: dS/dp[%d] = %.12g disagrees with FD (best rel err %.3g)"
                  label d g err)
          grad

let point_at config frac =
  let lower, upper = Test_param.bounds_of config.Test_config.params in
  Array.init (Array.length lower) (fun d ->
      lower.(d) +. (frac *. (upper.(d) -. lower.(d))))

(* ------------------------------- scenario macros: rc, ota, sallen *)

let scenario_built topology =
  Scenario.build
    {
      Scenario.minimal with
      Scenario.topology;
      fault_count = 4;
      bridge_weight = 60;
      config_count = 2;
      levels = 2;
      value_seed = 11;
    }

let test_topology_gradients topology () =
  let built = scenario_built topology in
  let evaluators =
    List.map
      (fun ev -> Evaluator.with_profile ev tight_profile)
      built.Scenario.evaluators
  in
  let entries = Faults.Dictionary.entries built.Scenario.dictionary in
  let checked = ref 0 and skipped = ref 0 in
  List.iter
    (fun ev ->
      let config = Evaluator.config ev in
      List.iter
        (fun (entry : Faults.Dictionary.entry) ->
          List.iter
            (fun impact_scale ->
              let fault =
                Faults.Fault.with_impact entry.Faults.Dictionary.fault
                  (impact_scale
                  *. Faults.Fault.impact_resistance
                       entry.Faults.Dictionary.fault)
              in
              List.iter
                (fun frac ->
                  let label =
                    Printf.sprintf "%s config %d %s x%g @%g"
                      (Scenario.to_string built.Scenario.spec)
                      config.Test_config.config_id
                      entry.Faults.Dictionary.fault_id impact_scale frac
                  in
                  check_gradient_at label ev fault (point_at config frac)
                    ~checked ~skipped)
                [ 0.35; 0.65 ])
            [ 1.0; 0.45 ])
        entries)
    evaluators;
  Alcotest.(check bool)
    (Printf.sprintf "enough partials verified (%d checked, %d skipped)"
       !checked !skipped)
    true (!checked >= 5)

(* ------------------------------------ IV converter: random probes *)

let iv_entries =
  lazy
    (Array.of_list
       (Faults.Dictionary.entries
          (Macros.Macro.dictionary Macros.Iv_converter.macro)))

let prop_iv_gradient =
  QCheck.Test.make
    ~name:"IV converter: adjoint dS/dp matches FD at random fault points"
    ~count:20
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, two_param) ->
      let rng = Rng.create (Int64.of_int ((seed * 2) + Bool.to_int two_param)) in
      let ev = Lazy.force (if two_param then iv_ev2 else iv_ev1) in
      let config = Evaluator.config ev in
      let entries = Lazy.force iv_entries in
      let entry = entries.(Rng.int rng ~bound:(Array.length entries)) in
      let fault =
        Faults.Fault.with_impact entry.Faults.Dictionary.fault
          (Faults.Fault.impact_resistance entry.Faults.Dictionary.fault
          *. Rng.uniform rng ~lo:0.4 ~hi:2.5)
      in
      let lower, upper = Test_param.bounds_of config.Test_config.params in
      let values =
        Array.init (Array.length lower) (fun d ->
            let f = Rng.uniform rng ~lo:0.2 ~hi:0.8 in
            lower.(d) +. (f *. (upper.(d) -. lower.(d))))
      in
      match Evaluator.sensitivity_gradient ev fault values with
      | None -> false
      | Some (s, grad) ->
          s = Evaluator.detected_sentinel
          ||
          let ok = ref true and usable = ref false in
          Array.iteri
            (fun d g ->
              let scale = upper.(d) -. lower.(d) in
              match
                classify
                  (fd_check
                     (fun v -> Evaluator.sensitivity ev fault v)
                     values d ~grad:g ~scale)
              with
              | Certified -> usable := true
              | Oracle_limited -> ()
              | Wrong _ -> ok := false)
            grad;
          QCheck.assume (!usable || not !ok);
          !ok)

(* Nominal-point (seed) check on both DC configurations, pinned. *)
let test_iv_gradient_at_seeds () =
  let checked = ref 0 and skipped = ref 0 in
  List.iter
    (fun ev ->
      let config = Evaluator.config ev in
      let seeds = Test_param.seeds_of config.Test_config.params in
      List.iter
        (fun fault ->
          let label =
            Printf.sprintf "config %d seed %s" config.Test_config.config_id
              (Faults.Fault.id fault)
          in
          check_gradient_at label ev fault seeds ~checked ~skipped)
        [ bridge; Faults.Fault.with_impact bridge 3e3; pinhole ])
    [ Lazy.force iv_ev1; Lazy.force iv_ev2 ];
  Alcotest.(check bool)
    (Printf.sprintf "seed partials verified (%d checked, %d skipped)" !checked
       !skipped)
    true
    (!checked >= 4)

(* ----------------------------- calibrated box: the dbox chain term *)

(* With a corner-calibrated box the cost depends on the parameters
   through the box surface as well as the response; a gradient that
   dropped the dbox term would fail this check. *)
let test_calibrated_box_gradient () =
  let ev = iv_evaluator ~box:`Calibrated Experiments.Iv_configs.config1 in
  let config = Evaluator.config ev in
  let tol =
    Tolerance.calibrate ~profile:tight_profile config ~nominal:iv_target
      ~corners:(Lazy.force iv_corners) ()
  in
  let box_moves = ref false in
  let checked = ref 0 and skipped = ref 0 in
  List.iter
    (fun frac ->
      let values = point_at config frac in
      let _, dbox = Tolerance.box_gradient tol values in
      if Array.exists (fun row -> Array.exists (fun d -> d <> 0.) row) dbox
      then box_moves := true;
      List.iter
        (fun fault ->
          check_gradient_at
            (Printf.sprintf "calibrated box @%g %s" frac
               (Faults.Fault.id fault))
            ev fault values ~checked ~skipped)
        [ bridge; Faults.Fault.with_impact bridge 3e3 ])
    [ 0.3; 0.45; 0.6; 0.8 ];
  Alcotest.(check bool) "calibrated box has nonzero slope somewhere" true
    !box_moves;
  Alcotest.(check bool)
    (Printf.sprintf "calibrated partials verified (%d checked, %d skipped)"
       !checked !skipped)
    true (!checked >= 3)

(* Tolerance.box_gradient against FD of Tolerance.box directly, and the
   bit-identity of its box part. *)
let test_box_gradient_vs_fd () =
  let config = Experiments.Iv_configs.config2 in
  let tol =
    Tolerance.calibrate ~profile:tight_profile config ~nominal:iv_target
      ~corners:(Lazy.force iv_corners) ()
  in
  let lower, upper = Test_param.bounds_of config.Test_config.params in
  let rng = Rng.create 7L in
  let checked = ref 0 in
  for _ = 1 to 40 do
    let values =
      Array.init (Array.length lower) (fun d ->
          lower.(d) +. (Rng.uniform rng ~lo:0.05 ~hi:0.95 *. (upper.(d) -. lower.(d))))
    in
    let box, dbox = Tolerance.box_gradient tol values in
    Array.iteri
      (fun i b ->
        Alcotest.(check int64)
          (Printf.sprintf "box part bit-identical (row %d)" i)
          (bits (Tolerance.box tol values).(i))
          (bits b))
      box;
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun d g ->
            let scale = upper.(d) -. lower.(d) in
            let fd h =
              fd_slope (fun v -> (Tolerance.box tol v).(i)) values d (h *. scale)
            in
            match (fd 1e-5, fd 2.5e-6) with
            (* piecewise multilinear: inside a cell both steps agree and
               FD is exact to rounding; across a lattice edge or where
               the floor starts to bind they disagree — skip. *)
            | Some f1, Some f2
              when Float.abs (f1 -. f2) <= 1e-6 *. Float.max 1. (Float.abs f1)
              ->
                incr checked;
                if rel_err f1 g > 1e-6 then
                  Alcotest.failf
                    "dbox.(%d).(%d) = %.12g disagrees with FD %.12g" i d g f1
            | _ -> ())
          row)
      dbox
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough box partials verified (%d)" !checked)
    true (!checked >= 20)

(* --------------------------- step-size sweep: the FD error curve *)

(* The classic verification figure: truncation error decays as the
   step shrinks until solver roundoff takes over and the error grows
   again.  The adjoint value sits below both ends of the curve — the
   sweep brackets it — and the best step agrees to machine precision. *)
let test_step_sweep_brackets_adjoint () =
  let ev = Lazy.force iv_ev1 in
  let config = Evaluator.config ev in
  let lower, upper = Test_param.bounds_of config.Test_config.params in
  let scale = upper.(0) -. lower.(0) in
  let values = point_at config 0.4 in
  match Evaluator.sensitivity_gradient ev bridge values with
  | None -> Alcotest.fail "config 1 must admit the adjoint"
  | Some (_, grad) ->
      let errs =
        List.map
          (fun h ->
            match
              fd_slope (fun v -> Evaluator.sensitivity ev bridge v) values 0
                (h *. scale)
            with
            | None -> Alcotest.fail "stencil hit the sentinel"
            | Some fd -> rel_err fd grad.(0))
          [ 3e-2; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8 ]
      in
      let best = List.fold_left Float.min infinity errs in
      let coarse = List.hd errs and fine = List.nth errs (List.length errs - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "best step agrees to %.1g (got %.3g)" grad_tolerance
           best)
        true (best <= grad_tolerance);
      Alcotest.(check bool)
        (Printf.sprintf
           "coarse end is truncation-limited (%.3g > best %.3g)" coarse best)
        true (coarse > best);
      Alcotest.(check bool)
        (Printf.sprintf "fine end is roundoff-limited (%.3g >= best %.3g)"
           fine best)
        true (fine >= best)

(* ------------------------------------- fault-impact derivative *)

(* g_dimpact from the compiled gradient against a log-step central
   difference of the compiled observables over the model resistance. *)
let test_impact_derivative_vs_fd () =
  let config = Experiments.Iv_configs.config1 in
  let values = Test_param.seeds_of config.Test_config.params in
  List.iter
    (fun fault ->
      let name, r = Faults.Inject.impact_override fault in
      let target =
        {
          iv_target with
          Execute.netlist = Faults.Inject.apply iv_target.Execute.netlist fault;
        }
      in
      let plan = Execute.compile config target in
      let observe rr =
        Execute.compiled_observables ~profile:tight_profile ~impact:(name, rr)
          plan values
      in
      match
        Execute.compiled_gradient ~profile:tight_profile ~impact:(name, r)
          plan values
      with
      | None -> Alcotest.fail "DC levels must admit the compiled gradient"
      | Some g ->
          Array.iteri
            (fun k obs ->
              Alcotest.(check int64)
                (Printf.sprintf "%s: g_obs.(%d) bit-identical"
                   (Faults.Fault.id fault) k)
                (bits (observe r).(k))
                (bits obs))
            g.Execute.g_obs;
          let dimpact =
            match g.Execute.g_dimpact with
            | Some d -> d
            | None -> Alcotest.fail "impact override must produce g_dimpact"
          in
          Array.iteri
            (fun k di ->
              (* d obs / d (ln r) = r * dobs/dr, via symmetric factors *)
              let logslope = r *. di in
              let err =
                List.fold_left
                  (fun acc h ->
                    let f = exp h in
                    let fd =
                      ((observe (r *. f)).(k) -. (observe (r /. f)).(k))
                      /. (2. *. h)
                    in
                    Float.min acc (rel_err fd logslope))
                  infinity
                  [ 1e-2; 3e-3; 1e-3; 3e-4 ]
              in
              if err > grad_tolerance then
                Alcotest.failf
                  "%s: r*dV/dr for observable %d = %.12g off by %.3g"
                  (Faults.Fault.id fault) k logslope err)
            dimpact)
    [ bridge; Faults.Fault.with_impact bridge 2e3; pinhole ]

(* ------------------------------------------- fallback contract *)

let test_fallback_is_free () =
  (* non-DC analyses never pretend to have a gradient *)
  (match
     Execute.gradient ~profile:tight_profile Experiments.Iv_configs.config3
       iv_target
       (Test_param.seeds_of
          Experiments.Iv_configs.config3.Test_config.params)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "THD configuration claimed an analytic gradient");
  (* the legacy evaluator path declines too, without charging *)
  let config = Experiments.Iv_configs.config1 in
  let ev =
    Evaluator.create ~profile:tight_profile ~mode:`Legacy config
      ~nominal:iv_target
      ~box_model:(Tolerance.floor_only config)
  in
  let before = Evaluator.evaluation_count ev in
  (match
     Evaluator.sensitivity_gradient ev bridge
       (Test_param.seeds_of config.Test_config.params)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "legacy evaluator claimed an analytic gradient");
  Alcotest.(check int) "declining costs no evaluations" before
    (Evaluator.evaluation_count ev)

(* ---------------------------- generation parity: grad vs oracle *)

let grad_options =
  { Generate.default_options with Generate.use_gradient = true }

(* Both optimizer arities: config 1 drives the Brent oracle, config 2
   the Powell oracle; the gradient mode replaces both. *)
let parity_evaluators () =
  List.map
    (fun config ->
      Evaluator.create ~mode:`Compiled config ~nominal:iv_target
        ~box_model:(Tolerance.floor_only config))
    [ Experiments.Iv_configs.config1; Experiments.Iv_configs.config2 ]

let parity_dictionary = lazy (Macros.Macro.dictionary Macros.Iv_converter.macro)

let run_with ?options ?(executor = Engine.sequential) () =
  Engine.run ?options ~executor ~evaluators:(parity_evaluators ())
    (Lazy.force parity_dictionary)

let outcome_flavour (r : Generate.result) =
  match r.Generate.outcome with
  | Generate.Unique _ -> "unique"
  | Generate.Undetectable _ -> "undetectable"

let probe_count (run : Engine.run) =
  List.fold_left
    (fun acc (r : Generate.result) ->
      List.fold_left
        (fun acc (c : Generate.candidate) ->
          acc + c.Generate.optimizer_evaluations)
        acc r.Generate.candidates)
    0 run.Engine.results

(* The gradient optimizer must reach the oracle's verdict on every
   fault of the seed macro's dictionary, while spending a fraction of
   its optimizer probes. *)
let test_grad_verdict_parity () =
  let oracle = run_with () in
  let grad = run_with ~options:grad_options () in
  Alcotest.(check int) "same result count"
    (List.length oracle.Engine.results)
    (List.length grad.Engine.results);
  List.iter2
    (fun (o : Generate.result) (g : Generate.result) ->
      Alcotest.(check string) "fault order" o.Generate.fault_id
        g.Generate.fault_id;
      Alcotest.(check string)
        (o.Generate.fault_id ^ ": detect verdict")
        (outcome_flavour o) (outcome_flavour g))
    oracle.Engine.results grad.Engine.results;
  let po = probe_count oracle and pg = probe_count grad in
  Alcotest.(check bool)
    (Printf.sprintf "gradient probes %d well under oracle probes %d" pg po)
    true
    (float_of_int pg <= 0.6 *. float_of_int po)

let outcome_label (o : Generate.result Resilience.outcome) =
  match o with
  | Resilience.Ok _ -> "ok"
  | Resilience.Recovered _ ->
      "recovered:" ^ Option.value ~default:"?" (Resilience.recovery_rung o)
  | Resilience.Failed d -> "failed:" ^ d.Resilience.diag_error

(* everything observable about a run except wall-clock time *)
let fingerprint (run : Engine.run) =
  ( Session.to_string run.Engine.results,
    List.map
      (fun (r : Engine.fault_report) ->
        (r.Engine.report_fault_id, outcome_label r.Engine.report_outcome))
      run.Engine.reports,
    run.Engine.rung_stats,
    run.Engine.recovered_count,
    run.Engine.total_fault_simulations,
    List.map (fun d -> d.Resilience.diag_fault_id) run.Engine.failed_faults )

(* A gradient run is a pure function of the dictionary: the session
   checkpoint bytes must not depend on the worker count. *)
let test_grad_jobs_determinism () =
  let seq = run_with ~options:grad_options () in
  let par =
    run_with ~options:grad_options ~executor:(Parallel.executor ~jobs:4) ()
  in
  Alcotest.(check string) "session checkpoint bytes identical"
    (Session.to_string seq.Engine.results)
    (Session.to_string par.Engine.results);
  Alcotest.(check bool) "full run fingerprints identical" true
    (fingerprint seq = fingerprint par)

let () =
  Alcotest.run "gradient"
    [
      ( "transpose",
        [
          QCheck_alcotest.to_alcotest prop_mat_transpose;
        ] );
      ( "scenario macros",
        [
          Alcotest.test_case "rc_ladder" `Quick
            (test_topology_gradients (Scenario.Rc_ladder 3));
          Alcotest.test_case "ota" `Quick
            (test_topology_gradients Scenario.Ota);
          Alcotest.test_case "sallen_key" `Quick
            (test_topology_gradients Scenario.Sallen_key);
        ] );
      ( "iv converter",
        [
          Alcotest.test_case "pinned seed points" `Quick
            test_iv_gradient_at_seeds;
          QCheck_alcotest.to_alcotest prop_iv_gradient;
          Alcotest.test_case "calibrated box chain term" `Quick
            test_calibrated_box_gradient;
          Alcotest.test_case "step-size sweep brackets" `Quick
            test_step_sweep_brackets_adjoint;
          Alcotest.test_case "impact derivative" `Quick
            test_impact_derivative_vs_fd;
        ] );
      ( "box",
        [ Alcotest.test_case "box_gradient vs FD" `Quick test_box_gradient_vs_fd ] );
      ( "fallback",
        [ Alcotest.test_case "None is free" `Quick test_fallback_is_free ] );
      ( "generation parity",
        [
          Alcotest.test_case "verdicts match the oracle" `Quick
            test_grad_verdict_parity;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick
            test_grad_jobs_determinism;
        ] );
    ]
