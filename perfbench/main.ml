(* Benchmark entry point: one workload, one seed, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints each metric with its unit on stderr and, as the last line of
   stdout, the JSON result object.  With --trace 0 the metrics are the
   end-to-end ones, measured untraced; with --trace 1 they are the
   per-layer ones of a separate traced run.  Must be started from the
   repository root, where perfbench/pins.txt is found. *)

let workloads =
  [
    (Paper_iv.name, (Batch.end_to_end Paper_iv.spec, Batch.layers Paper_iv.spec));
    (Universe.name, (Batch.end_to_end Universe.spec, Batch.layers Universe.spec));
    (Serve_mix.name, (Serve_mix.end_to_end, Serve_mix.layers));
  ]

let pins_file = "perfbench/pins.txt"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring window of the untraced run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let end_to_end, layers =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let pins = Check.load_pins pins_file in
  Common.ensure_out_dir ();
  let outcome =
    if !trace = 0 then end_to_end ~seed:!seed ~seconds:!seconds ~pins
    else begin
      Spans.start ~workload:!workload;
      let o = Spans.timed !workload (fun () -> layers ~seed:!seed ~pins) in
      let path =
        Filename.concat Common.out_dir
          (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
      in
      Spans.write path;
      Common.say "spans written to %s" path;
      o
    end
  in
  List.iter
    (fun (x : Metric.t) -> Common.say "%-44s %14.6g %s" x.name x.value x.unit_)
    outcome.Common.metrics;
  Common.say "%-44s %14.6g ratio (%d failed of %d attempted)" "fail_ratio"
    (Stats.ratio (float_of_int outcome.failed) (float_of_int outcome.attempted))
    outcome.failed outcome.attempted;
  print_endline
    (Metric.result_line ~correct:(outcome.failed = 0) ~attempted:outcome.attempted
       ~failed:outcome.failed outcome.metrics)
