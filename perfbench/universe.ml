(* Workload universe_otac64: a large linear fault universe.

   The probe context of the otac64 OTA cascade (130 unknowns, 276
   bridges) on the sparse backend.  A round generates tests with the
   probe options for a seeded 70 % sample, compacts them, then sweeps a
   seeded test grid over all 276 faults with Coverage.evaluate.  The
   plans are DC levels only, with no transient, so sparse factor/replay
   and config-major batching carry the work: the opposite of paper_iv.

   The skc<N> chains would be the larger linear universes, but every
   skc bridge joins nodes driven by ideal sources, so coverage there is
   0 (0/45 on skc8, 0/861 on skc40) and a sweep over it measures a
   degenerate workload; see NOTES.md. *)

open Testgen

let name = "universe_otac64"

let macro () =
  match Macros.Registry.find "otac64" with Ok m -> m | Error e -> failwith e

(* [per_config] seeded points per configuration, uniform within each
   parameter's bounds. *)
let grid ~seed ~per_config (ctx : Experiments.Setup.t) =
  let rng = Sampler.rng_of_seed ~salt:(name ^ "/grid") seed in
  List.concat_map
    (fun (cfg : Test_config.t) ->
      List.init per_config (fun k ->
          {
            Coverage.test_label = Printf.sprintf "g%d-%d" cfg.config_id k;
            test_config_id = cfg.config_id;
            test_params =
              Array.of_list
                (List.map
                   (fun (p : Test_param.t) ->
                     Numerics.Rng.uniform rng ~lo:p.lower ~hi:p.upper)
                   cfg.params);
          }))
    ctx.Experiments.Setup.configs

let spec =
  {
    Batch.name;
    dictionary = (fun () -> Macros.Macro.dictionary (macro ()));
    setup =
      (fun () -> Experiments.Setup.probe ~backend:Circuit.Mna.Sparse ~macro:(macro ()) ());
    (* the context builds in about a millisecond: time it often *)
    setup_reps = 501;
    options = Some Experiments.Setup.probe_options;
    sample =
      (fun ~seed dict ->
        Sampler.draw
          (Sampler.rng_of_seed ~salt:name seed)
          (Sampler.by_kind ~share:0.7 dict));
    phase_reps = 3;
    coverage_tests = (fun ~seed ctx _ -> grid ~seed ~per_config:12 ctx);
    (* a set that detects nothing is the skc degenerate case *)
    check =
      (fun c cov ->
        if cov.Coverage.covered > 0 && c.Compactor.coverage.Coverage.covered > 0 then None
        else Some "covers no fault");
  }
