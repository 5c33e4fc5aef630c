(* Regression oracle for the paper result.

   Runs the full 55-fault IV-converter flow the way
   `atpg compact --fast --jobs 1` does — calibrate, generate every fault,
   collapse the compact test set — and reduces it to one line per fault
   (verdict, best configuration, the exact bits of the critical impact)
   plus one line per compacted test (configuration, parameter bits,
   faults covered) and the final coverage.  No wall clock enters it.

     dune exec test/oracle/paper_oracle.exe -- test/oracle/paper_iv.digest

   prints the lines and their MD5, and exits 1 when the MD5 differs from
   the first word of the digest file.  A change that moves the digest
   must update the file and EXPERIMENTS.md together.  It takes about a
   minute, so it runs as its own CI job rather than under
   `dune runtest`. *)

open Testgen

let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let fault_line (r : Generate.result) =
  match r.Generate.outcome with
  | Generate.Unique u ->
      Printf.sprintf "%s unique c%d %s" r.Generate.fault_id u.config_id
        (bits u.critical_impact)
  | Generate.Undetectable u ->
      Printf.sprintf "%s undetectable c%d %s" r.Generate.fault_id
        u.most_sensitive_config (bits u.strongest_impact)

let test_line (t : Compactor.compact_test) =
  Printf.sprintf "%s c%d %s [%s]" t.Compactor.ct_label t.ct_config_id
    (String.concat "," (Array.to_list (Array.map bits t.ct_params)))
    (String.concat " " t.ct_fault_ids)

let lines () =
  let ctx =
    Experiments.Setup.iv ~profile:Execute.fast_profile
      ~backend:Circuit.Mna.Dense ()
  in
  let run = Experiments.Runs.engine_run ctx in
  let compact = Experiments.Runs.compact_run ctx run in
  List.map fault_line run.Engine.results
  @ List.map
      (fun (d : Resilience.diagnosis) ->
        "quarantined " ^ d.Resilience.diag_fault_id)
      run.Engine.failed_faults
  @ List.map test_line compact.Compactor.compact_tests
  @ [
      Printf.sprintf "covered %d/%d" compact.coverage.Coverage.covered
        compact.coverage.total;
    ]

let pinned path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  match String.split_on_char ' ' (String.trim line) with
  | d :: _ -> d
  | [] -> ""

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: paper_oracle DIGEST-FILE";
        exit 2
  in
  let lines = lines () in
  List.iter print_endline lines;
  let digest = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  let expected = pinned path in
  Printf.printf "digest %s (pinned %s)\n" digest expected;
  if not (String.equal digest expected) then begin
    prerr_endline
      "paper oracle: the digest moved — a verdict, critical impact or \
       compacted test changed";
    exit 1
  end
