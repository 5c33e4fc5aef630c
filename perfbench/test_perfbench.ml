(* Tests of the benchmark's own helpers: order statistics, the fault
   sampler, metric names and the output check. *)

let feq = Alcotest.float 1e-12
let triple = Alcotest.(triple feq feq feq)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..5" (1.5, 3.0, 4.5) (Stats.quartiles [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check triple "unsorted" (1., 2., 3.) (Stats.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check triple "10..100" (27.5, 55., 82.5)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (10 * (i + 1)))));
  Alcotest.check triple "1..6" (1.75, 3.5, 5.25)
    (Stats.quartiles [ 1.; 2.; 3.; 4.; 5.; 6. ]);
  Alcotest.check triple "constant" (5., 5., 5.) (Stats.quartiles [ 5.; 5. ]);
  Alcotest.check feq "iqr share" 1.0 (Stats.iqr_share [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check feq "iqr share of a constant" 0. (Stats.iqr_share [ 7.; 7.; 7. ])

let test_quantile () =
  Alcotest.check feq "median even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "median odd" 3. (Stats.median [ 5.; 3.; 1. ]);
  Alcotest.check feq "p90 interpolates" 4.6 (Stats.quantile 0.9 [ 1.; 2.; 3.; 4.; 5. ]);
  Alcotest.check feq "p0" 1. (Stats.quantile 0. [ 3.; 1.; 2. ]);
  Alcotest.check feq "p100" 3. (Stats.quantile 1. [ 3.; 1.; 2. ]);
  Alcotest.check feq "single" 9. (Stats.quantile 0.9 [ 9. ]);
  Alcotest.check feq "mean" 2.5 (Stats.mean [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "empty ratio" 0. (Stats.ratio 3. 0.)

let iv = Macros.Macro.dictionary Macros.Iv_converter.macro
let ids sample = List.map (fun (e : Faults.Dictionary.entry) -> e.fault_id) sample
let kind e = Sampler.kind_label e
let rng seed = Sampler.rng_of_seed ~salt:"test" seed

let test_sampler_determinism () =
  let strata = Sampler.by_kind ~share:0.3 iv in
  let a = ids (Sampler.draw (rng 4) strata) and b = ids (Sampler.draw (rng 4) strata) in
  Alcotest.(check (list string)) "same seed, same sample" a b;
  let others = List.init 8 (fun s -> ids (Sampler.draw (rng (s + 5)) strata)) in
  Alcotest.(check bool) "another seed changes the sample" true (List.exists (( <> ) a) others)

let test_sampler_by_kind () =
  let strata = Sampler.by_kind ~share:0.4 iv in
  let sample = Sampler.draw (rng 1) strata in
  let count k = List.length (List.filter (fun e -> kind e = k) sample) in
  Alcotest.(check int) "bridges" 18 (count "bridge");
  Alcotest.(check int) "pinholes" 4 (count "pinhole");
  Alcotest.(check int) "no repeats" (List.length sample)
    (List.length (List.sort_uniq compare (ids sample)));
  let restricted = Sampler.restrict iv sample in
  Alcotest.(check int) "restricted size" 22 (Faults.Dictionary.size restricted)

let test_sampler_balanced () =
  (* three labelled strata over the dictionary positions, cost rising
     with the position *)
  let pos =
    List.mapi
      (fun i (e : Faults.Dictionary.entry) -> (e.fault_id, i))
      (Faults.Dictionary.entries iv)
  in
  let at (e : Faults.Dictionary.entry) = List.assoc e.fault_id pos in
  let label e = string_of_int (at e mod 3) in
  let cost e = float_of_int (at e) in
  let quota l _ = if l = "0" then 2 else 1 in
  let strata = Sampler.strata ~label ~quota iv in
  Alcotest.(check (list string)) "labels in order" [ "0"; "1"; "2" ]
    (List.map (fun (s : Sampler.stratum) -> s.label) strata);
  List.iter
    (fun (s : Sampler.stratum) ->
      Alcotest.(check bool) "members share the label" true
        (List.for_all (fun e -> label e = s.label) s.members))
    strata;
  let has_pinhole = List.exists (fun e -> kind e = "pinhole") in
  let target = 4. *. 27. in
  for seed = 0 to 9 do
    let sample =
      Sampler.balanced ~accept:has_pinhole ~cost ~target ~tol:0.02 (rng seed) strata
    in
    let total = List.fold_left (fun a e -> a +. cost e) 0. sample in
    List.iter
      (fun l ->
        Alcotest.(check int) ("quota of " ^ l) (quota l 0)
          (List.length (List.filter (fun e -> label e = l) sample)))
      [ "0"; "1"; "2" ];
    Alcotest.(check bool) "accepted" true (has_pinhole sample);
    Alcotest.(check bool) "balanced total" true
      (Float.abs (total -. target) <= 0.02 *. target)
  done;
  Alcotest.check_raises "nothing acceptable"
    (Invalid_argument "Sampler.balanced: no draw passes [accept]") (fun () ->
      ignore
        (Sampler.balanced ~max_draws:50 ~accept:(fun _ -> false) ~cost ~target
           ~tol:0.02 (rng 0) strata))

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "setup_s"; "numerics.factor_us.dense.n11"; "serve.req_ms.op"; "0x"; "a-b" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metric.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "p50%"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Metric.valid_unit u))
    [ "s"; "ms"; "1/s"; "%"; "count"; "us" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Metric.valid_unit u))
    [ ""; "a b"; "\xc2\xb5s"; String.make 17 's' ];
  Alcotest.check_raises "bad name refused" (Invalid_argument "Metric.make: bad name x y")
    (fun () -> ignore (Metric.make "x y" 1. "s"))

let test_result_line () =
  let line =
    Metric.result_line ~correct:true ~attempted:3 ~failed:0
      [ Metric.make "a" 1.5 "s"; Metric.make "b" 2. "count" ]
  in
  Alcotest.(check string) "json"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": \
     {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
    line;
  Alcotest.check_raises "nan refused" (Invalid_argument "Metric.json_number: not finite")
    (fun () -> ignore (Metric.json_number Float.nan))

let test_check () =
  let lines x = [ "bridge:0-n1 U c5 " ^ Check.bits x; "covered 3/55" ] in
  let d = Check.digest (lines 1.0) in
  let perturbed = Check.digest (lines (Float.succ 1.0)) in
  Alcotest.(check bool) "one bit moves the digest" true (d <> perturbed);
  let pins = Check.parse_pins (Printf.sprintf "# comment\npaper_iv 3 %s\n\n" d) in
  let verdict = function
    | Check.Match -> "match"
    | Check.Mismatch _ -> "mismatch"
    | Check.Unpinned -> "unpinned"
  in
  let v seed x = verdict (Check.verify pins ~workload:"paper_iv" ~seed x) in
  Alcotest.(check string) "pinned digest accepted" "match" (v 3 d);
  Alcotest.(check string) "perturbed digest rejected" "mismatch" (v 3 perturbed);
  Alcotest.(check string) "other seed unpinned" "unpinned" (v 4 d);
  Alcotest.check_raises "malformed pin line"
    (Failure "Check.parse_pins: malformed line: paper_iv 3") (fun () ->
      ignore (Check.parse_pins "paper_iv 3"))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quartiles and IQR" `Quick test_quartiles;
          Alcotest.test_case "quantiles" `Quick test_quantile;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "determinism" `Quick test_sampler_determinism;
          Alcotest.test_case "stratified by kind" `Quick test_sampler_by_kind;
          Alcotest.test_case "labelled strata and balance" `Quick test_sampler_balanced;
        ] );
      ( "metric",
        [
          Alcotest.test_case "names and units" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ("check", [ Alcotest.test_case "digest and pins" `Quick test_check ]);
    ]
