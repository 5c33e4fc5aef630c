(* Output check: a digest of what a workload computed, compared with the
   digest pinned for its seed.

   The digest covers each fault's outcome (unique or undetectable), its
   best configuration, the exact bits of its critical (or strongest
   tried) impact, and the compact test set — so a change that moves any
   verdict, impact or compacted test changes the digest. *)

open Testgen

let bits x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)
let vec_bits v = String.concat "," (Array.to_list (Array.map bits v))

let fault_line (r : Generate.result) =
  match r.Generate.outcome with
  | Generate.Unique u ->
      Printf.sprintf "%s U c%d %s" r.Generate.fault_id u.config_id (bits u.critical_impact)
  | Generate.Undetectable u ->
      Printf.sprintf "%s X c%d %s" r.Generate.fault_id u.most_sensitive_config
        (bits u.strongest_impact)

let run_lines (run : Engine.run) =
  List.map fault_line run.Engine.results
  @ List.map
      (fun (d : Resilience.diagnosis) -> "quarantined " ^ d.Resilience.diag_fault_id)
      run.Engine.failed_faults

let compact_lines (c : Compactor.result) =
  List.map
    (fun (t : Compactor.compact_test) ->
      Printf.sprintf "%s c%d %s [%s]" t.Compactor.ct_label t.ct_config_id
        (vec_bits t.ct_params) (String.concat " " t.ct_fault_ids))
    c.Compactor.compact_tests
  @ [ Printf.sprintf "covered %d/%d" c.coverage.Coverage.covered c.coverage.total ]

let coverage_lines (r : Coverage.report) =
  Printf.sprintf "grid covered %d/%d" r.Coverage.covered r.total
  :: List.map
       (fun (d : Coverage.detection) ->
         Printf.sprintf "%s %d %s" d.Coverage.det_fault_id
           (List.length d.detected_by) (bits d.best_sensitivity))
       r.detections

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Pins: one "<workload> <seed> <digest>" line each; '#' starts a
   comment line. *)
let parse_pins text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char ' ' line |> List.filter (( <> ) "") with
           | [ w; s; d ] -> (
               match int_of_string_opt s with
               | Some seed -> Some ((w, seed), d)
               | None -> failwith ("Check.parse_pins: bad seed in: " ^ line))
           | _ -> failwith ("Check.parse_pins: malformed line: " ^ line))

let load_pins path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_pins text

type verdict = Match | Mismatch of string | Unpinned

let verify pins ~workload ~seed d =
  match List.assoc_opt (workload, seed) pins with
  | None -> Unpinned
  | Some expected -> if String.equal expected d then Match else Mismatch expected
