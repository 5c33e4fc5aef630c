(* Compiled hot-path parity: the compile-once/restamp-many execution
   path must reproduce the legacy build-per-probe path bit for bit —
   per-arm observables, whole [Engine.run] records and session
   checkpoint bytes, with and without fault-impact overrides and
   failure injection — plus the dt_divisor decimation contract. *)

open Testgen
module Fp = Numerics.Failpoint

let iv_target =
  Experiments.Setup.target_of_macro Macros.Iv_converter.macro
    Macros.Process.nominal

let bits = Array.map Int64.bits_of_float

let check_bitwise msg expected got =
  Alcotest.(check (array int64)) msg (bits expected) (bits got)

let bridge = Faults.Fault.bridge "n1" "vout" ~resistance:10e3
let pinhole = Faults.Fault.pinhole "m6" ~r_shunt:2e3

let injected fault =
  {
    iv_target with
    Execute.netlist = Faults.Inject.apply iv_target.Execute.netlist fault;
  }

(* ------------------------------------------------- observables parity *)

(* Every analysis arm (DC levels, THD, step train, IMD, noise, AC), on
   the nominal topology and on a bridge and a pinhole topology: the
   compiled plan must reproduce the legacy per-probe rebuild bitwise. *)
let test_observables_parity () =
  let profile = Execute.fast_profile in
  List.iter
    (fun config ->
      let values = Test_param.seeds_of config.Test_config.params in
      let check_target label target impact =
        let legacy = Execute.observables ~profile config target values in
        let compiled =
          Execute.compiled_observables ~profile ?impact
            (Execute.compile config target)
            values
        in
        check_bitwise
          (Printf.sprintf "config %d %s" config.Test_config.config_id label)
          legacy compiled
      in
      check_target "nominal" iv_target None;
      check_target "bridge" (injected bridge)
        (Some (Faults.Inject.impact_override bridge));
      check_target "pinhole" (injected pinhole)
        (Some (Faults.Inject.impact_override pinhole)))
    Experiments.Iv_configs.all

(* One plan per fault site, restamped per impact: a plan compiled from
   the 10k bridge answers queries for the 3k bridge through the impact
   override alone, still matching a legacy run that injects 3k afresh. *)
let test_impact_restamp_parity () =
  let config = Experiments.Iv_configs.config1 in
  let values = Test_param.seeds_of config.Test_config.params in
  let plan = Execute.compile config (injected bridge) in
  List.iter
    (fun ohms ->
      let variant = Faults.Fault.with_impact bridge ohms in
      let legacy = Execute.observables config (injected variant) values in
      let compiled =
        Execute.compiled_observables
          ~impact:(Faults.Inject.impact_override variant)
          plan values
      in
      check_bitwise (Printf.sprintf "bridge at %g ohm" ohms) legacy compiled)
    [ 10e3; 3e3; 330.; 1e6 ]

(* The impact override must also reach the small-signal and noise
   stamps, where the resistor appears both in the system matrix and as a
   thermal-noise source. *)
let test_impact_reaches_noise_and_ac () =
  let values fault config =
    let v = Test_param.seeds_of config.Test_config.params in
    let legacy = Execute.observables config (injected fault) v in
    let compiled =
      Execute.compiled_observables
        ~impact:(Faults.Inject.impact_override fault)
        (Execute.compile config (injected fault))
        v
    in
    (legacy, compiled)
  in
  List.iter
    (fun config ->
      List.iter
        (fun fault ->
          let legacy, compiled = values fault config in
          check_bitwise
            (Printf.sprintf "config %d, fault %s" config.Test_config.config_id
               (Faults.Fault.id fault))
            legacy compiled)
        [ bridge; Faults.Fault.with_impact bridge 470.; pinhole ])
    [ Experiments.Iv_configs.config1 ]

(* ------------------------------------------------------ engine parity *)

let full_dictionary = Macros.Macro.dictionary Macros.Iv_converter.macro

let small_dictionary =
  Faults.Dictionary.of_faults
    [
      Faults.Fault.bridge "n1" "vout" ~resistance:10e3;
      Faults.Fault.bridge "0" "vdd" ~resistance:10e3;
      Faults.Fault.pinhole "m6" ~r_shunt:2e3;
    ]

let evaluator mode =
  let config = Experiments.Iv_configs.config1 in
  Evaluator.create ~mode config ~nominal:iv_target
    ~box_model:(Tolerance.floor_only config)

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

let run_mode ?policy mode dictionary =
  Engine.run ?policy ~executor:Engine.sequential ~evaluators:[ evaluator mode ]
    dictionary

(* Full dictionary, sequential: the legacy and compiled evaluators must
   produce identical run records and identical session text — the bytes
   that checkpoints, --resume and report generation all consume. *)
let test_engine_parity () =
  let legacy = run_mode `Legacy full_dictionary in
  let compiled = run_mode `Compiled full_dictionary in
  Alcotest.(check int) "whole dictionary simulated"
    (Faults.Dictionary.size full_dictionary)
    (List.length compiled.Engine.results);
  Alcotest.(check bool) "run records identical" true
    (fingerprint legacy = fingerprint compiled);
  Alcotest.(check string) "session text identical"
    (Session.to_string legacy.Engine.results)
    (Session.to_string compiled.Engine.results)

(* A compiled parallel run against a legacy sequential run: compiled
   plans are domain-private (fork compiles its own), so the pool must
   not disturb parity either. *)
let test_engine_parity_parallel () =
  let legacy = run_mode `Legacy full_dictionary in
  let compiled =
    Engine.run
      ~executor:(Parallel.executor ~jobs:2)
      ~evaluators:[ evaluator `Compiled ]
      full_dictionary
  in
  Alcotest.(check bool) "legacy sequential = compiled pool" true
    (fingerprint legacy = fingerprint compiled)

(* Under probabilistic failure injection the two paths must draw the
   same failpoint sequence (same solve count, same Newton iteration
   counts), so recovery and quarantine patterns stay identical. *)
let test_engine_parity_injected () =
  let injected mode =
    Fp.with_failpoints ~seed:23L
      [
        {
          Fp.point = "dc.no_convergence";
          probability = 0.35;
          max_triggers = Some 2;
        };
        {
          Fp.point = "execute.observables";
          probability = 0.05;
          max_triggers = None;
        };
      ]
      (fun () -> run_mode mode small_dictionary)
  in
  let legacy = injected `Legacy in
  Alcotest.(check bool) "injection exercised the ladder" true
    (legacy.Engine.recovered_count > 0 || legacy.Engine.failed_faults <> []);
  Alcotest.(check bool) "injected runs identical" true
    (fingerprint legacy = fingerprint (injected `Compiled))

(* --------------------------------------------- dt_divisor decimation *)

(* Step-train configuration with an awkward tstop/dt ratio: the product
   test_time * sample_rate is not exactly representable, so the grid
   reconstruction must round, not truncate. *)
let decimation_config ~sample_rate ~test_time =
  Test_config.create ~id:99 ~name:"decimation probe"
    ~macro_type:"IV-converter" ~control_node:"Iin"
    ~params:
      [
        Test_param.create ~name:"elev" ~units:"A" ~lower:5e-6 ~upper:50e-6
          ~seed:25e-6;
      ]
    ~analysis:
      (Test_config.Tran_samples
         {
           stimulus =
             (fun v ->
               Circuit.Waveform.Step
                 { base = 0.; elev = v.(0); delay = 2e-7; rise = 1e-7 });
           sample_rate;
           test_time;
         })
    ~returns:Test_config.Max_abs_delta
    ~return_names:[ "Max_k |dV(Vout,t_k)|" ]
    ~accuracy_floor:[ 2e-3 ]
    ~summary:"decimation regression probe"

let test_decimation_grid () =
  List.iter
    (fun (sample_rate, test_time) ->
      let config = decimation_config ~sample_rate ~test_time in
      let values = Test_param.seeds_of config.Test_config.params in
      let with_divisor k =
        let profile = { Execute.default_profile with dt_divisor = k } in
        Execute.observables ~profile config iv_target values
      in
      let reference = with_divisor 1 in
      let expected_len =
        1 + int_of_float (Float.round (test_time *. sample_rate))
      in
      Alcotest.(check int)
        (Printf.sprintf "k=1 grid length at %g Hz x %g s" sample_rate test_time)
        expected_len (Array.length reference);
      List.iter
        (fun k ->
          let decimated = with_divisor k in
          Alcotest.(check int)
            (Printf.sprintf "k=%d grid length" k)
            (Array.length reference) (Array.length decimated);
          (* the t=0 sample is the DC operating point: independent of
             the integration step, so bitwise equal across divisors *)
          Alcotest.(check int64)
            (Printf.sprintf "k=%d initial sample" k)
            (Int64.bits_of_float reference.(0))
            (Int64.bits_of_float decimated.(0));
          (* endpoint alignment: with an exact divisor relationship the
             final decimated sample is the fine grid's final sample, at
             t = tstop *)
          Alcotest.(check bool)
            (Printf.sprintf "k=%d endpoint finite" k)
            true
            (Float.is_finite decimated.(Array.length decimated - 1)))
        [ 2; 3; 5 ])
    [ (100e6, 7.5e-6); (3.3e6, 1e-5); (7e6, 3e-6) ]

(* The decimated grid must agree sample-for-sample with an explicit
   fine-grid simulation read at every k-th point (the same subdivided
   step the profile induces, [dt /. k]). *)
let test_decimation_values () =
  let sample_rate = 3.3e6 and test_time = 1e-5 in
  let config = decimation_config ~sample_rate ~test_time in
  let values = Test_param.seeds_of config.Test_config.params in
  let k = 3 in
  let profile = { Execute.default_profile with dt_divisor = k } in
  let decimated = Execute.observables ~profile config iv_target values in
  let wave =
    Circuit.Waveform.Step
      { base = 0.; elev = values.(0); delay = 2e-7; rise = 1e-7 }
  in
  let nl =
    Execute.with_stimulus iv_target.Execute.netlist
      ~source:iv_target.Execute.stimulus_source wave
  in
  let sys = Circuit.Mna.build nl in
  let dt = 1. /. sample_rate in
  let result =
    Circuit.Tran.simulate ~options:Circuit.Dc.default_options sys
      ~tstop:test_time
      ~dt:(dt /. float_of_int k)
      ~observe:[ iv_target.Execute.observe_node ]
  in
  let fine = Circuit.Tran.probe_values result iv_target.Execute.observe_node in
  Alcotest.(check bool) "decimation drops samples" true
    (Array.length decimated < Array.length fine);
  Array.iteri
    (fun i coarse ->
      let j = Int.min (i * k) (Array.length fine - 1) in
      Alcotest.(check int64)
        (Printf.sprintf "sample %d" i)
        (Int64.bits_of_float fine.(j))
        (Int64.bits_of_float coarse))
    decimated

(* ---------------------------------------------------- compiled step *)

(* The compiled transient step (workspace, indexed companions, bound
   overrides) against the allocating reference [Tran.simulate], bit for
   bit on every recorded sample. *)
let check_tran msg (reference : Circuit.Tran.result) (compiled : Circuit.Tran.result) =
  List.iter2
    (fun (r : Circuit.Tran.probe) (c : Circuit.Tran.probe) ->
      check_bitwise (msg ^ " " ^ r.node) r.values c.values)
    reference.probes compiled.probes

(* configuration 5's step stimulus at its seed values *)
let c5_stimulus () =
  let c5 = Experiments.Iv_configs.config5 in
  match c5.Test_config.analysis with
  | Test_config.Tran_samples { stimulus; sample_rate; test_time } ->
      (stimulus (Test_config.param_values_of_seed c5), test_time, 1. /. sample_rate)
  | _ -> Alcotest.fail "configuration 5 is not a sampled transient"

let iv_plan ?backend ?fault () =
  let target = match fault with Some f -> injected f | None -> iv_target in
  let wave, tstop, dt = c5_stimulus () in
  let source = target.Execute.stimulus_source in
  let nl = Execute.with_stimulus target.Execute.netlist ~source wave in
  let restamp =
    {
      Circuit.Mna.stimulus = Some (source, wave);
      impact = Option.map Faults.Inject.impact_override fault;
    }
  in
  (Circuit.Mna.build ?backend nl, restamp, tstop, dt)

let test_step_rlc_methods () =
  let open Circuit in
  let nl =
    Netlist.add_all (Netlist.empty ~title:"rlc")
      [
        Device.Vsource
          {
            name = "v";
            plus = "in";
            minus = "0";
            wave = Waveform.Sine { offset = 0.2; ampl = 1.; freq = 50e3; phase = 0. };
          };
        Device.Resistor { name = "r1"; a = "in"; b = "mid"; ohms = 100. };
        Device.Inductor { name = "l1"; a = "mid"; b = "out"; henries = 1e-3 };
        Device.Capacitor { name = "c1"; a = "out"; b = "0"; farads = 10e-9 };
        Device.Resistor { name = "r2"; a = "out"; b = "0"; ohms = 10e3 };
        Device.Capacitor { name = "c2"; a = "mid"; b = "0"; farads = 1e-9 };
      ]
  in
  let restamp = { Mna.stimulus = None; impact = Some ("r2", 2.2e3) } in
  List.iter
    (fun (label, method_) ->
      List.iter
        (fun backend ->
          let sys = Mna.build ~backend nl in
          let run ?workspace () =
            Tran.simulate ~method_ ?workspace ~restamp sys ~tstop:100e-6 ~dt:0.5e-6
              ~observe:[ "out"; "mid"; "0" ]
          in
          let reference = run () in
          let compiled = run ~workspace:(Mna.workspace sys) () in
          check_tran label reference compiled)
        [ Mna.Dense; Mna.Sparse ])
    [ ("backward Euler", Tran.Backward_euler); ("trapezoidal", Tran.Trapezoidal) ]

(* IV configuration 5 on the sparse backend, nominal and with a pinhole
   impact restamped, against the allocating dense reference. *)
let test_step_sparse_iv () =
  List.iter
    (fun fault ->
      let dense, restamp, tstop, dt = iv_plan ?fault () in
      let sparse, _, _, _ = iv_plan ~backend:Circuit.Mna.Sparse ?fault () in
      let observe = [ iv_target.Execute.observe_node ] in
      let reference = Circuit.Tran.simulate ~restamp dense ~tstop ~dt ~observe in
      let compiled =
        Circuit.Tran.simulate ~workspace:(Circuit.Mna.workspace sparse) ~restamp sparse
          ~tstop ~dt ~observe
      in
      check_tran "sparse c5" reference compiled)
    [ None; Some pinhole ]

(* Seeded dc.no_convergence injection at a rate that makes steps refine
   (the local halving recursion) but never exhausts it: both paths draw
   the same failpoint sequence and must refine identically. *)
let test_step_refinement_injected () =
  let sys, restamp, tstop, dt = iv_plan ~fault:bridge () in
  let observe = [ iv_target.Execute.observe_node ] in
  let injected ?workspace () =
    Fp.with_failpoints ~seed:5L
      [ { Fp.point = "dc.no_convergence"; probability = 0.02; max_triggers = None } ]
      (fun () ->
        let r = Circuit.Tran.simulate ?workspace ~restamp sys ~tstop ~dt ~observe in
        (r, Fp.trigger_count "dc.no_convergence"))
  in
  let reference, triggers = injected () in
  let compiled, triggers' = injected ~workspace:(Circuit.Mna.workspace sys) () in
  Alcotest.(check bool) "injection refined some steps" true (triggers > 1);
  Alcotest.(check int) "same failpoint triggers" triggers triggers';
  check_tran "refined c5" reference compiled

(* The compiled step allocates (almost) nothing: a 750-step
   configuration-5 simulation through a workspace stays within 64 minor
   words a step, the per-simulation buffers included. *)
let test_step_allocation_bound () =
  let sys, restamp, tstop, dt = iv_plan ~fault:pinhole () in
  let ws = Circuit.Mna.workspace sys in
  let observe = [ iv_target.Execute.observe_node ] in
  let run () = Circuit.Tran.simulate ~workspace:ws ~restamp sys ~tstop ~dt ~observe in
  let steps = Array.length (run ()).Circuit.Tran.times - 1 in
  Alcotest.(check int) "750 steps" 750 steps;
  let before = Gc.minor_words () in
  ignore (run ());
  let per_step = (Gc.minor_words () -. before) /. float_of_int steps in
  if per_step > 64. then Alcotest.failf "%.1f minor words per step (bound 64)" per_step

let () =
  Alcotest.run "hotpath"
    [
      ( "observables",
        [
          Alcotest.test_case "all arms, nominal + faults" `Quick
            test_observables_parity;
          Alcotest.test_case "impact restamp reuses one plan" `Quick
            test_impact_restamp_parity;
          Alcotest.test_case "impact reaches noise and AC" `Quick
            test_impact_reaches_noise_and_ac;
        ] );
      ( "engine",
        [
          Alcotest.test_case "full dictionary, sequential" `Quick
            test_engine_parity;
          Alcotest.test_case "compiled pool vs legacy sequential" `Quick
            test_engine_parity_parallel;
          Alcotest.test_case "under failure injection" `Quick
            test_engine_parity_injected;
        ] );
      ( "compiled step",
        [
          Alcotest.test_case "RLC, both methods and backends" `Quick
            test_step_rlc_methods;
          Alcotest.test_case "sparse IV configuration 5" `Quick test_step_sparse_iv;
          Alcotest.test_case "refinement under injection" `Quick
            test_step_refinement_injected;
          Alcotest.test_case "allocation bound" `Quick test_step_allocation_bound;
        ] );
      ( "decimation",
        [
          Alcotest.test_case "grid length and endpoints" `Quick
            test_decimation_grid;
          Alcotest.test_case "values match explicit fine grid" `Quick
            test_decimation_values;
        ] );
    ]
