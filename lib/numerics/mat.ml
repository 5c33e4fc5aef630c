type t = { r : int; c : int; a : float array }

let create r c =
  if r < 0 || c < 0 then invalid_arg "Mat.create";
  { r; c; a = Array.make (r * c) 0. }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.a.((i * n) + i) <- 1.
  done;
  m

let of_rows rows =
  let r = Array.length rows in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows.(0) in
    let m = create r c in
    Array.iteri
      (fun i row ->
        if Array.length row <> c then invalid_arg "Mat.of_rows: ragged rows";
        Array.blit row 0 m.a (i * c) c)
      rows;
    m
  end

let rows m = m.r
let cols m = m.c
let get m i j = m.a.((i * m.c) + j)
let set m i j x = m.a.((i * m.c) + j) <- x
let add_to m i j x = m.a.((i * m.c) + j) <- m.a.((i * m.c) + j) +. x
let copy m = { m with a = Array.copy m.a }
let fill m x = Array.fill m.a 0 (Array.length m.a) x
let values m = m.a

let mul_vec m v =
  if Vec.dim v <> m.c then invalid_arg "Mat.mul_vec: dimension mismatch";
  Vec.init m.r (fun i ->
      let s = ref 0. in
      for j = 0 to m.c - 1 do
        s := !s +. (m.a.((i * m.c) + j) *. v.(j))
      done;
      !s)

let mul x y =
  if x.c <> y.r then invalid_arg "Mat.mul: dimension mismatch";
  let z = create x.r y.c in
  for i = 0 to x.r - 1 do
    for k = 0 to x.c - 1 do
      let xik = x.a.((i * x.c) + k) in
      if xik <> 0. then
        for j = 0 to y.c - 1 do
          z.a.((i * z.c) + j) <- z.a.((i * z.c) + j) +. (xik *. y.a.((k * y.c) + j))
        done
    done
  done;
  z

let transpose m =
  let t = create m.c m.r in
  for i = 0 to m.r - 1 do
    for j = 0 to m.c - 1 do
      t.a.((j * t.c) + i) <- m.a.((i * m.c) + j)
    done
  done;
  t

exception Singular of int

type lu = {
  n : int;
  lu : float array;
  piv : int array;
  mutable sign : float;
  mutable factored : bool;
}

(* Caller-owned factorization workspace for the restamp-many hot path:
   [factor_in_place] overwrites it without allocating, so one workspace
   serves every Newton iteration of an analysis.  The elimination is the
   same partial-pivoting Crout sweep as {!lu_factor} — identical
   arithmetic, identical pivot choices, identical [Singular] payloads —
   a contract pinned by the QCheck parity properties in the test suite. *)
let lu_workspace n =
  if n < 0 then invalid_arg "Mat.lu_workspace";
  {
    n;
    lu = Array.make (n * n) 0.;
    piv = Array.init n (fun i -> i);
    sign = 1.;
    factored = false;
  }

let lu_size ws = ws.n

let lu_pivots ws =
  if not ws.factored then invalid_arg "Mat.lu_pivots: workspace not factored";
  Array.copy ws.piv

(* Crout-style in-place LU with partial pivoting over the flat
   row-major array.  Every index below is derived from [n] (checked
   against both arrays on entry) and from pivots in [0, n), so the
   unchecked accesses stay in bounds.  The sign is tracked as a swap
   parity and stored once: a float written into the mixed [lu] record
   would box on every row swap. *)
let factor_in_place m ws =
  if m.r <> m.c then invalid_arg "Mat.factor_in_place: not square";
  if m.r <> ws.n then invalid_arg "Mat.factor_in_place: size mismatch";
  let n = ws.n in
  let a = ws.lu in
  Array.blit m.a 0 a 0 (n * n);
  let piv = ws.piv in
  for i = 0 to n - 1 do
    Array.unsafe_set piv i i
  done;
  ws.factored <- false;
  let odd = ref false in
  for k = 0 to n - 1 do
    let kn = k * n in
    let p = ref k in
    let best = ref (Float.abs (Array.unsafe_get a (kn + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best then begin
        best := v;
        p := i
      end
    done;
    if !best < 1e-300 then raise (Singular k);
    let p = !p in
    if p <> k then begin
      let pn = p * n in
      for j = 0 to n - 1 do
        let t = Array.unsafe_get a (kn + j) in
        Array.unsafe_set a (kn + j) (Array.unsafe_get a (pn + j));
        Array.unsafe_set a (pn + j) t
      done;
      let t = Array.unsafe_get piv k in
      Array.unsafe_set piv k (Array.unsafe_get piv p);
      Array.unsafe_set piv p t;
      odd := not !odd
    end;
    let akk = Array.unsafe_get a (kn + k) in
    for i = k + 1 to n - 1 do
      let row = i * n in
      let lik = Array.unsafe_get a (row + k) /. akk in
      Array.unsafe_set a (row + k) lik;
      if lik <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (row + j)
            (Array.unsafe_get a (row + j)
            -. (lik *. Array.unsafe_get a (kn + j)))
        done
    done
  done;
  ws.sign <- (if !odd then -1. else 1.);
  ws.factored <- true

let lu_factor m =
  if m.r <> m.c then invalid_arg "Mat.lu_factor: not square";
  let ws = lu_workspace m.r in
  factor_in_place m ws;
  ws

let solve_into ws b x =
  if not ws.factored then invalid_arg "Mat.solve_into: workspace not factored";
  let { n; lu = a; piv; _ } = ws in
  if Vec.dim b <> n then invalid_arg "Mat.solve_into: dimension mismatch";
  if Vec.dim x <> n then invalid_arg "Mat.solve_into: bad output dimension";
  if b == x then invalid_arg "Mat.solve_into: aliased input and output";
  for i = 0 to n - 1 do
    Array.unsafe_set x i (Array.unsafe_get b (Array.unsafe_get piv i))
  done;
  (* forward substitution, unit lower triangle *)
  for i = 1 to n - 1 do
    let row = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get a (row + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* backward substitution *)
  for i = n - 1 downto 0 do
    let row = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get a (row + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get a (row + i))
  done

(* Transpose solve against the same held factorization: with PA = LU,
   A^T x = b  ⇔  U^T (L^T (P x)) = b — forward-substitute through U^T
   (divided diagonal), back-substitute through L^T (unit diagonal), then
   undo the row permutation.  One temporary vector is allocated: the
   adjoint solve runs once per gradient, not once per Newton iteration,
   so the allocation never sits on the hot path. *)
let solve_transpose_into ws b x =
  if not ws.factored then
    invalid_arg "Mat.solve_transpose_into: workspace not factored";
  let { n; lu = a; piv; _ } = ws in
  if Vec.dim b <> n then
    invalid_arg "Mat.solve_transpose_into: dimension mismatch";
  if Vec.dim x <> n then
    invalid_arg "Mat.solve_transpose_into: bad output dimension";
  if b == x then
    invalid_arg "Mat.solve_transpose_into: aliased input and output";
  let y = Array.make n 0. in
  (* forward substitution through U^T (lower triangular, divided diagonal) *)
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (a.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !s /. a.((i * n) + i)
  done;
  (* backward substitution through L^T (upper triangular, unit diagonal) *)
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (a.((j * n) + i) *. y.(j))
    done;
    y.(i) <- !s
  done;
  (* P x = y, so row piv.(i) of x receives component i *)
  for i = 0 to n - 1 do
    x.(piv.(i)) <- y.(i)
  done

let lu_blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Mat.lu_blit: size mismatch";
  if not src.factored then invalid_arg "Mat.lu_blit: source not factored";
  Array.blit src.lu 0 dst.lu 0 (src.n * src.n);
  Array.blit src.piv 0 dst.piv 0 src.n;
  dst.sign <- src.sign;
  dst.factored <- true

type rank1 = { r1_n : int; r1_y : float array; r1_w : float array }

let rank1_workspace n =
  if n < 0 then invalid_arg "Mat.rank1_workspace";
  { r1_n = n; r1_y = Array.make n 0.; r1_w = Array.make n 0. }

let rank1_solve ws r1 ~u ~v ~dg ~b ~x =
  if not ws.factored then invalid_arg "Mat.rank1_solve: workspace not factored";
  let n = ws.n in
  if r1.r1_n <> n then invalid_arg "Mat.rank1_solve: scratch size mismatch";
  if Vec.dim u <> n || Vec.dim v <> n || Vec.dim b <> n || Vec.dim x <> n then
    invalid_arg "Mat.rank1_solve: dimension mismatch";
  if b == x then invalid_arg "Mat.rank1_solve: aliased input and output";
  solve_into ws b r1.r1_y;
  solve_into ws u r1.r1_w;
  let vty = Vec.dot v r1.r1_y in
  let vtw = Vec.dot v r1.r1_w in
  let denom = 1. +. (dg *. vtw) in
  (* Guard against catastrophic cancellation: when dg*vtw ~ -1 the
     denominator loses all its significant digits and the update would
     amplify rounding error unboundedly.  The relative test compares the
     surviving magnitude against the magnitude of the terms that cancelled. *)
  if
    (not (Float.is_finite denom))
    || Float.abs denom <= 1e-10 *. (1. +. Float.abs (dg *. vtw))
  then false
  else begin
    let coef = dg *. vty /. denom in
    for i = 0 to n - 1 do
      x.(i) <- r1.r1_y.(i) -. (coef *. r1.r1_w.(i))
    done;
    true
  end

let lu_solve ws b =
  if Vec.dim b <> ws.n then invalid_arg "Mat.lu_solve: dimension mismatch";
  let x = Vec.create ws.n 0. in
  solve_into ws b x;
  x

let solve m b = lu_solve (lu_factor m) b

let det m =
  match lu_factor m with
  | exception Singular _ -> 0.
  | { n; lu; sign; _ } ->
      let d = ref sign in
      for i = 0 to n - 1 do
        d := !d *. lu.((i * n) + i)
      done;
      !d

let norm_inf m =
  let best = ref 0. in
  for i = 0 to m.r - 1 do
    let s = ref 0. in
    for j = 0 to m.c - 1 do
      s := !s +. Float.abs m.a.((i * m.c) + j)
    done;
    best := Float.max !best !s
  done;
  !best

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.r - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.c - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4g" (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.r - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
