(* The fixed-input layer suite of a traced run: each layer timed from
   outside through its public functions, on inputs built from the
   workloads' own netlists — the IV converter (11 unknowns), rc64 (66)
   and otac64 (130) — and the IV configurations.  The inputs do not
   depend on the workload, so every traced run reports the same suite. *)

open Testgen
module Mat = Numerics.Mat
module Smat = Numerics.Smat
module Mna = Circuit.Mna

let us x = x *. 1e6

(* One metric, measured inside a span of its own name. *)
let metric name unit_ f = Spans.timed name (fun () -> Common.m name (f ()) unit_)

let find_macro name =
  match Macros.Registry.find name with Ok m -> m | Error e -> failwith e

(* The system matrix and right-hand side at the nominal DC operating
   point. *)
let operating_system name =
  let nl = Macros.Macro.nominal_netlist (find_macro name) in
  let sys = Mna.build nl in
  let x = (Circuit.Dc.solve sys ~time:`Dc).Circuit.Dc.solution in
  let a, z = Mna.assemble sys ~x ~time:`Dc ~gmin:Circuit.Dc.default_options.gmin () in
  (sys, x, a, z)

let numerics () =
  let systems = [ ("n11", "iv"); ("n66", "rc64"); ("n130", "otac64") ] in
  List.concat_map
    (fun (size, macro) ->
      let _, _, a, z = operating_system macro in
      let n = Mat.rows a in
      let dlu = Mat.lu_workspace n in
      let s = Smat.of_dense a in
      let slu = Smat.lu_workspace n in
      let xd = Array.make n 0. and xs = Array.make n 0. in
      let dfactor () = Mat.factor_in_place a dlu in
      let sfactor () = Smat.factor_in_place s slu in
      let per_call name f = metric name "us" (fun () -> us (Common.per_call f)) in
      let factors =
        [
          per_call ("numerics.factor_us.dense." ^ size) dfactor;
          per_call ("numerics.factor_us.sparse." ^ size) sfactor;
        ]
      in
      let solves =
        if size = "n66" then []
        else
          [
            per_call ("numerics.solve_us.dense." ^ size) (fun () -> Mat.solve_into dlu z xd);
            per_call ("numerics.solve_us.sparse." ^ size) (fun () -> Smat.solve_into slu z xs);
          ]
      in
      let words =
        if size <> "n11" then []
        else
          [
            metric "numerics.factor_minor_words.dense.n11" "words" (fun () ->
                Common.minor_words_per dfactor);
            metric "numerics.factor_minor_words.sparse.n11" "words" (fun () ->
                Common.minor_words_per sfactor);
          ]
      in
      let sparse_130 =
        if size <> "n130" then []
        else begin
          (* 32 right-hand sides per blocked sweep *)
          let cols = 32 in
          let block () = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout n cols in
          let b = block () and xb = block () in
          for i = 0 to n - 1 do
            for r = 0 to cols - 1 do
              b.{i, r} <- z.(i) *. (1. +. (0.01 *. float_of_int r))
            done
          done;
          let refactor () = if not (Smat.refactor s slu) then sfactor () in
          [
            metric "numerics.solve_block_us_per_col.sparse.n130" "us" (fun () ->
                us (Common.per_call (fun () -> Smat.solve_block slu ~b ~x:xb))
                /. float_of_int cols);
            per_call "numerics.refactor_us.sparse.n130" refactor;
          ]
        end
      in
      factors @ solves @ words @ sparse_130)
    systems

let iv_macro = Macros.Iv_converter.macro
let iv_nominal () = Experiments.Setup.target_of_macro iv_macro Macros.Process.nominal
let profile = Execute.fast_profile

let circuit () =
  let sys, x, _, _ = operating_system "iv" in
  let ws = Mna.workspace sys in
  let gmin = Circuit.Dc.default_options.gmin in
  let assemble () = Mna.assemble_into sys ws ~x ~time:`Dc ~gmin () in
  let dc () = Circuit.Dc.solve ~workspace:ws sys ~time:`Dc in
  (* configuration 5's step stimulus at its seed values *)
  let c5 = Experiments.Iv_configs.config5 in
  let wave, tstop, dt =
    match c5.Test_config.analysis with
    | Test_config.Tran_samples { stimulus; sample_rate; test_time } ->
        (stimulus (Test_config.param_values_of_seed c5), test_time, 1. /. sample_rate)
    | _ -> invalid_arg "Layers.circuit: configuration 5 is not a sampled transient"
  in
  let restamp =
    { Mna.stimulus = Some (iv_macro.Macros.Macro.stimulus_source, wave); impact = None }
  in
  let tran () =
    Circuit.Tran.simulate ~options:profile.Execute.dc_options ~workspace:ws ~restamp sys
      ~tstop ~dt ~observe:[ iv_macro.Macros.Macro.observe_node ]
  in
  let steps = float_of_int (Array.length (tran ()).Circuit.Tran.times - 1) in
  [
    metric "circuit.assemble_us.iv" "us" (fun () -> us (Common.per_call assemble));
    metric "circuit.dc_solve_us.iv" "us" (fun () -> us (Common.per_call dc));
    metric "circuit.dc_minor_words.iv" "words" (fun () -> Common.minor_words_per dc);
    metric "circuit.tran_step_us.iv" "us" (fun () ->
        us (Common.per_call ~batches:5 ~min_batch:0.02 tran) /. steps);
    metric "circuit.tran_minor_words_per_step.iv" "words" (fun () ->
        Common.minor_words_per ~reps:3 tran /. steps);
  ]

let config_key (c : Test_config.t) = Printf.sprintf "c%d" c.config_id

let execute () =
  let nominal = iv_nominal () in
  let probes =
    List.map
      (fun c ->
        let plan = Execute.compile c nominal in
        let v = Test_config.param_values_of_seed c in
        metric ("execute.probe_ms." ^ config_key c) "ms" (fun () ->
            Common.ms
              (Common.per_call ~batches:5 (fun () ->
                   Execute.compiled_observables ~profile plan v))))
      Experiments.Iv_configs.all
  in
  (* otac64: nine fault sites, three impacts each, sixteen DC points *)
  let ctx = Experiments.Setup.probe ~backend:Mna.Sparse ~macro:(find_macro "otac64") () in
  let config = List.hd ctx.Experiments.Setup.configs in
  let target = Experiments.Setup.target_of_macro ctx.macro Macros.Process.nominal in
  let p = List.hd config.Test_config.params in
  let points =
    Array.init 16 (fun k ->
        [| p.Test_param.lower +. ((p.upper -. p.lower) *. float_of_int k /. 15.) |])
  in
  let sites =
    List.filteri (fun i _ -> i mod 32 = 0) (Faults.Dictionary.entries ctx.dictionary)
    |> List.map (fun (e : Faults.Dictionary.entry) ->
           let f = e.fault in
           let plan =
             Execute.compile ~backend:Mna.Sparse config
               { target with Execute.netlist = Faults.Inject.apply target.netlist f }
           in
           let dev, r = Faults.Inject.impact_override f in
           (plan, [| Some (dev, r); Some (dev, r *. 3.); Some (dev, r /. 3.) |]))
  in
  let pairs = List.length sites * 3 * Array.length points in
  let batch () =
    List.iter
      (fun (plan, impacts) ->
        ignore (Execute.compiled_batch_over_faults ~profile plan ~impacts ~points))
      sites
  in
  probes
  @ [
      metric "execute.batch_us_per_pair.otac64" "us" (fun () ->
          us (Common.per_call ~batches:5 batch) /. float_of_int pairs);
    ]

(* Calibration, then the evaluator and the optimizer on evaluators built
   from its boxes: each probe on a fresh fork of an evaluator that has
   never run, so every cache starts cold. *)
let evaluator_generate ~seed =
  let nominal = iv_nominal () in
  let corners =
    List.map (Experiments.Setup.target_of_macro iv_macro) (Macros.Process.corners ())
  in
  let boxes = ref [] in
  let calibrate =
    metric "tolerance.calibrate_s" "s" (fun () ->
        snd
          (Common.timed (fun () ->
               boxes :=
                 List.map
                   (fun c -> (c, Tolerance.calibrate ~profile c ~nominal ~corners ()))
                   Experiments.Iv_configs.all)))
  in
  let evaluators =
    List.map (fun (c, box_model) -> Evaluator.create ~profile c ~nominal ~box_model) !boxes
  in
  let entries = Faults.Dictionary.entries (Macros.Macro.dictionary iv_macro) in
  let entry =
    List.nth entries
      (Sampler.index (Sampler.rng_of_seed ~salt:"layers" seed) (List.length entries))
  in
  Common.say "layers: evaluator and optimizer probes on %s" entry.fault_id;
  let fault = entry.Faults.Dictionary.fault in
  let sens =
    List.map
      (fun ev ->
        let c = Evaluator.config ev in
        let v = Test_config.param_values_of_seed c in
        metric ("evaluator.sensitivity_ms." ^ config_key c) "ms" (fun () ->
            Common.ms
              (Stats.median
                 (List.init 5 (fun _ ->
                      let fork = Evaluator.fork ev in
                      snd (Common.timed (fun () -> Evaluator.sensitivity fork fault v)))))))
      evaluators
  in
  let weakened =
    Faults.Fault.weaken fault ~factor:Generate.default_options.Generate.soft_factor
  in
  let optimize =
    List.map
      (fun ev ->
        metric ("generate.optimize_s." ^ config_key (Evaluator.config ev)) "s" (fun () ->
            let fork = Evaluator.fork ev in
            snd (Common.timed (fun () -> Generate.optimize_candidate fork weakened))))
      evaluators
  in
  (calibrate :: sens) @ optimize

let suite ~seed =
  Spans.timed "layers.numerics" numerics
  @ Spans.timed "layers.circuit" circuit
  @ Spans.timed "layers.execute" execute
  @ Spans.timed "layers.evaluator" (fun () -> evaluator_generate ~seed)
