(* Unit and property tests for the numerics library. *)

open Numerics

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?eps msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (%.9g vs %.9g)" msg a b) true
    (feq ?eps a b)

(* ------------------------------------------------------------------ Vec *)

let test_vec_basic () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 5.; 7.; 9. |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.; -3.; -3. |] (Vec.sub a b);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.; 4.; 6. |] (Vec.scale 2. a);
  check_float "dot" 32. (Vec.dot a b);
  check_float "norm2" (sqrt 14.) (Vec.norm2 a);
  check_float "norm_inf" 3. (Vec.norm_inf a);
  check_float "dist_inf" 3. (Vec.dist_inf a b);
  Alcotest.(check (array (float 1e-12)))
    "axpy" [| 6.; 9.; 12. |] (Vec.axpy 2. a b)

let test_vec_clamp () =
  let lower = [| 0.; 0. |] and upper = [| 1.; 1. |] in
  Alcotest.(check (array (float 1e-12)))
    "clamp" [| 0.; 1. |]
    (Vec.clamp ~lower ~upper [| -5.; 7. |])

let test_vec_mismatch () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Vec.add [| 1. |] [| 1.; 2. |]))

(* ------------------------------------------------------------------ Mat *)

let test_mat_identity () =
  let i3 = Mat.identity 3 in
  let v = [| 1.; 2.; 3. |] in
  Alcotest.(check (array (float 1e-12))) "I v = v" v (Mat.mul_vec i3 v);
  check_float "det I" 1. (Mat.det i3)

let test_mat_solve_known () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Mat.solve a [| 5.; 10. |] in
  check_float "x" 1. x.(0);
  check_float "y" 3. x.(1)

let test_mat_pivoting () =
  (* leading zero pivot forces a row swap *)
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Mat.solve a [| 3.; 7. |] in
  check_float "x" 7. x.(0);
  check_float "y" 3. x.(1)

let test_mat_singular () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  (match Mat.lu_factor a with
  | exception Mat.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular");
  check_float "det singular" 0. (Mat.det a)

let test_mat_det () =
  let a = Mat.of_rows [| [| 3.; 1. |]; [| 2.; 5. |] |] in
  check_float "det" 13. (Mat.det a);
  (* swap rows: determinant negates *)
  let b = Mat.of_rows [| [| 2.; 5. |]; [| 3.; 1. |] |] in
  check_float "det swapped" (-13.) (Mat.det b)

let test_mat_transpose_mul () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let at = Mat.transpose a in
  Alcotest.(check int) "rows" 2 (Mat.rows at);
  Alcotest.(check int) "cols" 3 (Mat.cols at);
  let ata = Mat.mul at a in
  check_float "ata(0,0)" 35. (Mat.get ata 0 0);
  check_float "ata(0,1)" 44. (Mat.get ata 0 1);
  check_float "ata(1,1)" 56. (Mat.get ata 1 1)

let prop_lu_roundtrip =
  QCheck.Test.make ~name:"lu solve then multiply recovers rhs" ~count:100
    QCheck.(
      pair (int_range 1 8)
        (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let a = Mat.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Mat.set a i j (Rng.uniform rng ~lo:(-1.) ~hi:1.)
        done;
        (* diagonal dominance keeps the matrix comfortably regular *)
        Mat.add_to a i i (float_of_int n *. 2.)
      done;
      let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-10.) ~hi:10.) in
      let x = Mat.solve a b in
      let b' = Mat.mul_vec a x in
      Vec.dist_inf b b' < 1e-8)

(* ----------------------------------------------------------------- Cmat *)

let test_cmat_solve () =
  (* (1+i) x = 2i  ->  x = 2i/(1+i) = 1 + i *)
  let a = Cmat.create 1 1 in
  Cmat.set a 0 0 { Complex.re = 1.; im = 1. };
  let x = Cmat.solve a [| { Complex.re = 0.; im = 2. } |] in
  check_float "re" 1. x.(0).Complex.re;
  check_float "im" 1. x.(0).Complex.im

let test_cmat_residual () =
  let rng = Rng.create 42L in
  let n = 5 in
  let a = Cmat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmat.set a i j
        { Complex.re = Rng.uniform rng ~lo:(-1.) ~hi:1.;
          im = Rng.uniform rng ~lo:(-1.) ~hi:1. }
    done;
    Cmat.add_to a i i { Complex.re = 10.; im = 0. }
  done;
  let b =
    Array.init n (fun _ ->
        { Complex.re = Rng.uniform rng ~lo:(-1.) ~hi:1.; im = 0. })
  in
  let x = Cmat.solve a b in
  let b' = Cmat.mul_vec a x in
  let err =
    Array.fold_left
      (fun m i -> Float.max m i)
      0.
      (Array.init n (fun i -> Complex.norm (Complex.sub b.(i) b'.(i))))
  in
  Alcotest.(check bool) "residual small" true (err < 1e-10)

(* ---------------------------------------------------------------- Brent *)

let test_brent_quadratic () =
  let r = Brent.minimize ~f:(fun x -> (x -. 2.) ** 2.) ~a:0. ~b:5. () in
  check_float ~eps:1e-4 "xmin" 2. r.Brent.xmin;
  check_float ~eps:1e-6 "fmin" 0. r.Brent.fmin

let test_brent_nonsmooth () =
  let r = Brent.minimize ~f:(fun x -> Float.abs (x -. 1.3)) ~a:(-4.) ~b:4. () in
  check_float ~eps:1e-4 "xmin of |x-1.3|" 1.3 r.Brent.xmin

let test_brent_boundary () =
  (* monotone decreasing: minimum at the right edge *)
  let r = Brent.minimize ~f:(fun x -> -.x) ~a:0. ~b:1. () in
  Alcotest.(check bool) "at right edge" true (r.Brent.xmin > 0.99)

let test_golden_agrees () =
  let f x = ((x -. 0.7) ** 2.) +. 1. in
  let rb = Brent.minimize ~f ~a:(-2.) ~b:2. () in
  let rg = Brent.golden ~f ~a:(-2.) ~b:2. () in
  check_float ~eps:1e-3 "golden vs brent" rb.Brent.xmin rg.Brent.xmin

let test_bracket_scan () =
  (* two minima: global at 4.5, local at 0.5; scan should pick the global *)
  let f x = Float.min ((x -. 4.5) ** 2.) (0.5 +. ((x -. 0.5) ** 2.)) in
  let lo, hi = Brent.bracket_scan ~f ~a:0. ~b:5. ~n:20 in
  Alcotest.(check bool) "brackets global min" true (lo <= 4.5 && 4.5 <= hi)

let prop_brent_in_bounds =
  QCheck.Test.make ~name:"brent stays within [a,b]" ~count:100
    QCheck.(pair (float_range (-5.) 0.) (float_range 0.1 5.))
    (fun (a, width) ->
      let b = a +. width in
      let r = Brent.minimize ~f:(fun x -> sin (3. *. x)) ~a ~b () in
      r.Brent.xmin >= a -. 1e-9 && r.Brent.xmin <= b +. 1e-9)

(* iteration/evaluation accounting (the fields the optimizer span and
   the profile report consume) *)

let test_brent_degenerate_counts () =
  let evals = ref 0 in
  let f x =
    incr evals;
    x *. x
  in
  let r = Brent.minimize ~f ~a:1. ~b:1. () in
  Alcotest.(check int) "degenerate interval: zero iterations" 0
    r.Brent.iterations;
  Alcotest.(check int) "degenerate interval: one evaluation" 1 r.Brent.evals;
  Alcotest.(check int) "evals field matches calls made" !evals r.Brent.evals;
  check_float ~eps:0. "fmin is f a, not garbage" 1. r.Brent.fmin

let test_brent_eval_accounting () =
  let evals = ref 0 in
  let f x =
    incr evals;
    (x -. 2.) ** 2.
  in
  let r = Brent.minimize ~f ~a:0. ~b:5. () in
  Alcotest.(check int) "evals counts objective calls" !evals r.Brent.evals;
  Alcotest.(check bool) "evals >= iterations" true
    (r.Brent.evals >= r.Brent.iterations)

let test_brent_max_iter_bounds_iterations () =
  let r =
    Brent.minimize ~f:(fun x -> sin (5. *. x)) ~a:(-3.) ~b:3. ~max_iter:4 ()
  in
  Alcotest.(check bool) "iterations bounded by max_iter" true
    (r.Brent.iterations <= 4)

let test_golden_eval_accounting () =
  let evals = ref 0 in
  let f x =
    incr evals;
    ((x -. 0.7) ** 2.) +. 1.
  in
  let r = Brent.golden ~f ~a:(-2.) ~b:2. () in
  Alcotest.(check int) "golden evals = iterations + 2"
    (r.Brent.iterations + 2) r.Brent.evals;
  Alcotest.(check int) "evals field matches calls made" !evals r.Brent.evals

(* --------------------------------------------------------------- Powell *)

let test_powell_quadratic () =
  let f v = ((v.(0) -. 1.) ** 2.) +. (2. *. ((v.(1) +. 0.5) ** 2.)) in
  let r =
    Powell.minimize ~f ~lower:[| -5.; -5. |] ~upper:[| 5.; 5. |]
      ~start:[| 4.; 4. |] ()
  in
  check_float ~eps:1e-3 "x0" 1. r.Powell.xmin.(0);
  check_float ~eps:1e-3 "x1" (-0.5) r.Powell.xmin.(1)

let test_powell_coupled () =
  (* coupled quadratic that defeats naive coordinate descent speed *)
  let f v =
    let x = v.(0) and y = v.(1) in
    (x *. x) +. (4. *. y *. y) +. (3. *. x *. y) +. x -. y
  in
  let r =
    Powell.minimize ~f ~lower:[| -10.; -10. |] ~upper:[| 10.; 10. |]
      ~start:[| 5.; -5. |] ()
  in
  (* analytic optimum: grad = (2x+3y+1, 8y+3x-1) = 0 -> x = -11/7, y = 5/7 *)
  check_float ~eps:1e-2 "x" (-11. /. 7.) r.Powell.xmin.(0);
  check_float ~eps:1e-2 "y" (5. /. 7.) r.Powell.xmin.(1)

let test_powell_boundary () =
  (* unconstrained optimum outside the box: lands on the bound *)
  let f v = ((v.(0) -. 10.) ** 2.) +. (v.(1) ** 2.) in
  let r =
    Powell.minimize ~f ~lower:[| 0.; -1. |] ~upper:[| 2.; 1. |]
      ~start:[| 1.; 0.5 |] ()
  in
  check_float ~eps:1e-3 "clamped x" 2. r.Powell.xmin.(0)

let test_powell_scan () =
  (* multimodal: deep minimum near (3, 3), shallow near (0.5, 0.5) *)
  let f v =
    let d1 = ((v.(0) -. 3.) ** 2.) +. ((v.(1) -. 3.) ** 2.) in
    let d2 = ((v.(0) -. 0.5) ** 2.) +. ((v.(1) -. 0.5) ** 2.) in
    Float.min d1 (d2 +. 0.5)
  in
  let r =
    Powell.minimize_scan ~grid:5 ~f ~lower:[| 0.; 0. |] ~upper:[| 4.; 4. |] ()
  in
  check_float ~eps:1e-2 "global x" 3. r.Powell.xmin.(0)

let test_line_range () =
  let tmin, tmax =
    Powell.line_range ~lower:[| 0.; 0. |] ~upper:[| 1.; 2. |]
      ~point:[| 0.5; 1. |] ~dir:[| 1.; 0. |]
  in
  check_float "tmin" (-0.5) tmin;
  check_float "tmax" 0.5 tmax

let prop_powell_in_box =
  QCheck.Test.make ~name:"powell result stays in the box" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int (seed + 7)) in
      let cx = Rng.uniform rng ~lo:(-3.) ~hi:3. in
      let cy = Rng.uniform rng ~lo:(-3.) ~hi:3. in
      let f v = ((v.(0) -. cx) ** 2.) +. ((v.(1) -. cy) ** 2.) in
      let r =
        Powell.minimize ~f ~lower:[| -1.; -1. |] ~upper:[| 1.; 1. |]
          ~start:[| 0.; 0. |] ()
      in
      r.Powell.xmin.(0) >= -1.0000001
      && r.Powell.xmin.(0) <= 1.0000001
      && r.Powell.xmin.(1) >= -1.0000001
      && r.Powell.xmin.(1) <= 1.0000001)

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  Alcotest.(check bool) "different streams" true
    (Rng.float parent <> Rng.float child)

let test_rng_gaussian_moments () =
  let rng = Rng.create 2024L in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs (Stats.mean xs) < 0.05);
  Alcotest.(check bool) "std ~ 1" true (Float.abs (Stats.stddev xs -. 1.) < 0.05)

let test_rng_int_bounds () =
  let rng = Rng.create 11L in
  for _ = 1 to 10_000 do
    let x = Rng.int rng ~bound:7 in
    if x < 0 || x >= 7 then Alcotest.fail "Rng.int out of range"
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 7L in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" a sorted

let prop_uniform_in_range =
  QCheck.Test.make ~name:"uniform stays in [lo,hi)" ~count:200
    QCheck.(pair (float_range (-100.) 100.) (float_range 0.001 100.))
    (fun (lo, width) ->
      let rng = Rng.create (Int64.of_float (lo *. 1000.)) in
      let x = Rng.uniform rng ~lo ~hi:(lo +. width) in
      x >= lo && x < lo +. width)

(* Pinned fingerprints of the named streams everything deterministic is
   built on (failpoint sites, fuzz campaigns, scenario value draws): any
   change to Rng.of_key silently reshuffles recorded campaigns and
   injection patterns, so the first draws are locked here. *)
let test_of_key_fingerprints () =
  let fingerprint key =
    let rng = Rng.of_key ~seed:42L ~key in
    Array.init 8 (fun _ -> Rng.int64 rng)
  in
  let check key expected =
    Alcotest.(check (array int64))
      (Printf.sprintf "of_key %S first 8 draws" key)
      expected (fingerprint key)
  in
  check "alpha"
    [| 0x1a7ec7a2ef0972ebL; 0xda768488ef070a27L; 0x3f00fd5a9df08787L;
       0xd848a90f33eb93fcL; 0xddc9cf2d71efa26eL; 0x748549442829d6c6L;
       0xb6182a2b73f8b6cfL; 0xb29b6e841f0cc343L |];
  check "beta"
    [| 0xd0430e964fa18b48L; 0x8c67bfee2df31838L; 0xd0862b90fa927e9cL;
       0xd4cd60a6594649adL; 0xd94534b1a3046406L; 0x2171d27ad3b450ecL;
       0x7ab094a28f08b63bL; 0x1efce881d70626aaL |];
  check "fuzz.campaign.0001"
    [| 0xda4fd1ca63dedccdL; 0xa9fc11f4a60abc7cL; 0x5fb8a9892d3e0975L;
       0x6cfc95a17e6c59bcL; 0x4c915e77fbf32761L; 0x362d1f7a8fb7d4e5L;
       0xd63605ba6fa05320L; 0x5b5e19dc120d67d8L |]

let test_of_key_stable_across_instances () =
  let draws key =
    let rng = Rng.of_key ~seed:17L ~key in
    List.init 16 (fun _ -> Rng.int64 rng)
  in
  Alcotest.(check (list int64)) "same (seed, key) twice" (draws "x") (draws "x")

let prop_of_key_pairwise_independent =
  QCheck.Test.make ~name:"of_key streams pairwise distinct" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      QCheck.assume (not (String.equal a b));
      let draws key =
        let rng = Rng.of_key ~seed:5L ~key in
        Array.init 8 (fun _ -> Rng.int64 rng)
      in
      (* distinct keys must not share a stream: an 8-draw collision is a
         2^-512 event for independent streams, so any equality is a bug *)
      draws a <> draws b)

(* ------------------------------------------------------------- Checksum *)

let test_crc32_vectors () =
  let check msg expected s =
    Alcotest.(check int32) msg expected (Checksum.crc32 s)
  in
  (* the standard CRC-32/ISO-HDLC check value and friends *)
  check "check value" 0xCBF43926l "123456789";
  check "empty" 0l "";
  check "single a" 0xE8B7BE43l "a";
  check "abc" 0x352441C2l "abc"

let test_crc32_incremental () =
  let a = "atpg-session 1\n" and b = "result bridge:a-b\nfault ...\n" in
  Alcotest.(check int32) "crc32 ~crc chains"
    (Checksum.crc32 (a ^ b))
    (Checksum.crc32 ~crc:(Checksum.crc32 a) b);
  Alcotest.(check int32) "crc32_sub matches slice"
    (Checksum.crc32 b)
    (Checksum.crc32_sub (a ^ b) ~pos:(String.length a) ~len:(String.length b))

let prop_crc32_split_anywhere =
  QCheck.Test.make ~name:"crc32 incremental = whole, any split" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      Checksum.crc32 ~crc:(Checksum.crc32 a) b = Checksum.crc32 (a ^ b))

(* ---------------------------------------------------------------- Stats *)

let test_stats_basic () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_float "variance" 4. (Stats.variance xs);
  check_float "stddev" 2. (Stats.stddev xs);
  let lo, hi = Stats.min_max xs in
  check_float "min" 2. lo;
  check_float "max" 9. hi;
  check_float "median" 4.5 (Stats.median xs);
  check_float "p0" 2. (Stats.percentile xs 0.);
  check_float "p100" 9. (Stats.percentile xs 100.);
  check_float "max_abs" 9. (Stats.max_abs xs)

let test_stats_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_linreg () =
  let samples = Array.init 10 (fun i ->
      let x = float_of_int i in
      (x, (3. *. x) -. 2.)) in
  let r = Stats.linear_regression samples in
  check_float "slope" 3. r.Stats.slope;
  check_float "intercept" (-2.) r.Stats.intercept;
  check_float "r2" 1. r.Stats.r2

let () =
  Alcotest.run "numerics"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "clamp" `Quick test_vec_clamp;
          Alcotest.test_case "mismatch raises" `Quick test_vec_mismatch;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity" `Quick test_mat_identity;
          Alcotest.test_case "solve known" `Quick test_mat_solve_known;
          Alcotest.test_case "pivoting" `Quick test_mat_pivoting;
          Alcotest.test_case "singular" `Quick test_mat_singular;
          Alcotest.test_case "determinant" `Quick test_mat_det;
          Alcotest.test_case "transpose and mul" `Quick test_mat_transpose_mul;
          QCheck_alcotest.to_alcotest prop_lu_roundtrip;
        ] );
      ( "cmat",
        [
          Alcotest.test_case "1x1 complex" `Quick test_cmat_solve;
          Alcotest.test_case "residual" `Quick test_cmat_residual;
        ] );
      ( "brent",
        [
          Alcotest.test_case "quadratic" `Quick test_brent_quadratic;
          Alcotest.test_case "nonsmooth" `Quick test_brent_nonsmooth;
          Alcotest.test_case "boundary minimum" `Quick test_brent_boundary;
          Alcotest.test_case "golden agrees" `Quick test_golden_agrees;
          Alcotest.test_case "bracket scan" `Quick test_bracket_scan;
          QCheck_alcotest.to_alcotest prop_brent_in_bounds;
          Alcotest.test_case "degenerate interval counts" `Quick
            test_brent_degenerate_counts;
          Alcotest.test_case "evaluation accounting" `Quick
            test_brent_eval_accounting;
          Alcotest.test_case "max_iter bounds iterations" `Quick
            test_brent_max_iter_bounds_iterations;
          Alcotest.test_case "golden evaluation accounting" `Quick
            test_golden_eval_accounting;
        ] );
      ( "powell",
        [
          Alcotest.test_case "separable quadratic" `Quick test_powell_quadratic;
          Alcotest.test_case "coupled quadratic" `Quick test_powell_coupled;
          Alcotest.test_case "boundary optimum" `Quick test_powell_boundary;
          Alcotest.test_case "scan escapes local minima" `Quick test_powell_scan;
          Alcotest.test_case "line range" `Quick test_line_range;
          QCheck_alcotest.to_alcotest prop_powell_in_box;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_uniform_in_range;
          Alcotest.test_case "of_key fingerprints" `Quick
            test_of_key_fingerprints;
          Alcotest.test_case "of_key stable" `Quick
            test_of_key_stable_across_instances;
          QCheck_alcotest.to_alcotest prop_of_key_pairwise_independent;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          QCheck_alcotest.to_alcotest prop_crc32_split_anywhere;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats_basic;
          Alcotest.test_case "empty raises" `Quick test_stats_empty;
          Alcotest.test_case "linear regression" `Quick test_linreg;
        ] );
    ]
