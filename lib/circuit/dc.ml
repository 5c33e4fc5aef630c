open Numerics

exception No_convergence of string

type options = {
  abstol : float;
  reltol : float;
  max_newton : int;
  gmin : float;
  vlimit : float;
}

let default_options =
  { abstol = 1e-9; reltol = 1e-6; max_newton = 150; gmin = 1e-12; vlimit = 0.6 }

type report = {
  solution : Vec.t;
  newton_iterations : int;
  pattern_reuses : int;
  gmin_steps : int;
  source_steps : int;
}

(* A solution containing NaN or infinite node voltages must never count
   as converged: NaN compares false against every bound, so an unguarded
   check would either spin the full Newton budget or accept the garbage
   iterate silently. *)
let finite_solution x ~n_nodes =
  let ok = ref true in
  for i = 0 to n_nodes - 1 do
    if not (Float.is_finite x.(i)) then ok := false
  done;
  !ok

exception Diverged

(* Solver counters, bumped once per [solve] from the finished report —
   never inside the Newton loop — so the hot path stays allocation-free
   and branch-light with tracing off.  One LU factorization happens per
   Newton iteration (both the allocating and the in-place path), so the
   factorization counter is tallied from the iteration count of the
   attempt that produced the report. *)
let c_solves = Obs.Counter.create "solver.dc.solves"
let c_newton = Obs.Counter.create "solver.dc.newton_iterations"
let c_lu = Obs.Counter.create "solver.dc.lu_factorizations"
let c_reuse = Obs.Counter.create "solver.dc.pattern_reuses"
let c_gmin = Obs.Counter.create "solver.dc.gmin_steps"
let c_src = Obs.Counter.create "solver.dc.source_steps"
let c_fail = Obs.Counter.create "solver.dc.failures"

let h_newton =
  Obs.Histogram.create "solver.dc.newton_per_solve"
    ~bounds:[| 2; 4; 8; 16; 32; 64 |]

(* One Newton attempt at fixed gmin and source scale, allocating a fresh
   system per iteration — the legacy build-per-solve arithmetic, kept as
   the reference implementation for the compiled hot path.  Returns the
   solution and iteration count, or None on failure. *)
let newton_alloc ~options ~companions ~source_scale ~restamp ~gmin sys ~time
    ~start =
  let n_nodes = Mna.n_nodes sys in
  let x = ref (Vec.copy start) in
  let converged = ref false in
  let iters = ref 0 in
  (try
     while (not !converged) && !iters < options.max_newton do
       incr iters;
       if Failpoint.should_fail "dc.singular" then raise (Mat.Singular 0);
       let a, z =
         Mna.assemble sys ~x:!x ~time ?companions ~source_scale ?restamp ~gmin
           ()
       in
       let x_new = Mat.solve a z in
       let x_new =
         if Failpoint.should_fail "dc.nan_solution" then
           Vec.create (Vec.dim x_new) Float.nan
         else x_new
       in
       if not (finite_solution x_new ~n_nodes) then raise Diverged;
       (* damping: bound the node-voltage update *)
       let dv_max = ref 0. in
       for i = 0 to n_nodes - 1 do
         dv_max := Float.max !dv_max (Float.abs (x_new.(i) -. !x.(i)))
       done;
       let alpha =
         if !dv_max > options.vlimit then options.vlimit /. !dv_max else 1.
       in
       let x_next =
         Vec.init (Vec.dim x_new) (fun i ->
             !x.(i) +. (alpha *. (x_new.(i) -. !x.(i))))
       in
       if alpha = 1. then begin
         (* convergence is judged on node voltages of a full step *)
         let ok = ref true in
         for i = 0 to n_nodes - 1 do
           let dx = Float.abs (x_next.(i) -. !x.(i)) in
           if dx > options.abstol +. (options.reltol *. Float.abs x_next.(i))
           then ok := false
         done;
         converged := !ok
       end;
       x := x_next
     done
   with Mat.Singular _ | Diverged -> converged := false);
  if !converged then Some (!x, !iters) else None

(* One damped Newton update: bound the node-voltage step by [vlimit],
   write [x + alpha * (s - x)] into [out] (the form is kept even at
   [alpha = 1.], where it is not a bitwise no-op) and judge convergence
   on the node voltages of a full step, all in the same pass.  [out] may
   alias [s]. *)
let damp ~options ~n_nodes ~x ~s ~out =
  let dv_max = ref 0. in
  for i = 0 to n_nodes - 1 do
    dv_max := Float.max !dv_max (Float.abs (s.(i) -. x.(i)))
  done;
  let alpha =
    if !dv_max > options.vlimit then options.vlimit /. !dv_max else 1.
  in
  let ok = ref (alpha = 1.) in
  for i = 0 to n_nodes - 1 do
    let xi = x.(i) in
    let xn = xi +. (alpha *. (s.(i) -. xi)) in
    out.(i) <- xn;
    if Float.abs (xn -. xi) > options.abstol +. (options.reltol *. Float.abs xn)
    then ok := false
  done;
  for i = n_nodes to Array.length s - 1 do
    let xi = x.(i) in
    out.(i) <- xi +. (alpha *. (s.(i) -. xi))
  done;
  !ok

(* The same Newton iteration restamping a caller-owned workspace whose
   overrides and time are already bound: the system is assembled into
   the preallocated matrix, factored in place, solved into the swap
   buffer, and {!damp} overwrites it — no per-iteration allocation.
   Every arithmetic expression matches [newton_alloc] term for term, so
   both paths converge along identical trajectories.  Returns the
   iteration count of a converged attempt, whose solution is left in
   [ws.w_x], or 0. *)
let newton_ws ~options ?companions ~source_scale ~gmin sys ws ~start =
  let n_nodes = Mna.n_nodes sys in
  let size = Vec.dim start in
  Array.blit start 0 ws.Mna.w_x 0 size;
  let converged = ref false in
  let iters = ref 0 in
  (try
     while (not !converged) && !iters < options.max_newton do
       incr iters;
       if Failpoint.should_fail "dc.singular" then raise (Mat.Singular 0);
       Mna.assemble_bound sys ws ~x:ws.Mna.w_x ?companions ~source_scale ~gmin
         ();
       Mna.ws_factor ws;
       Mna.ws_solve_into ws ws.Mna.w_z ws.Mna.w_x_new;
       let x = ws.Mna.w_x and x_new = ws.Mna.w_x_new in
       if Failpoint.should_fail "dc.nan_solution" then
         Array.fill x_new 0 size Float.nan;
       if not (finite_solution x_new ~n_nodes) then raise Diverged;
       converged := damp ~options ~n_nodes ~x ~s:x_new ~out:x_new;
       ws.Mna.w_x <- x_new;
       ws.Mna.w_x_new <- x
     done
   with Mat.Singular _ | Diverged -> converged := false);
  if !converged then !iters else 0

(* A workspace attempt as the stepping ladders consume it: the solution
   copied out, with the attempt's pattern replays read off the
   workspace's own tally. *)
let attempt_ws ~options ?companions ~source_scale sys ws ~gmin ~scale start =
  let r0 = ws.Mna.w_reuses in
  let it =
    newton_ws ~options ?companions ~source_scale:(scale *. source_scale) ~gmin
      sys ws ~start
  in
  if it > 0 then Some (Vec.copy ws.Mna.w_x, it, ws.Mna.w_reuses - r0) else None

let injected_failure sys =
  if Failpoint.should_fail "dc.no_convergence" then
    raise
      (No_convergence
         (Printf.sprintf "injected failure at dc.no_convergence (%S)"
            (Netlist.title (Mna.netlist sys))))

(* Homotopy after a failed direct attempt, seeded from the same start:
   gmin stepping (relax, then tighten back to the final gmin), then
   source stepping at the final gmin.  Returns the last attempt's
   result with the stages each ladder used. *)
let ladder ~options ~attempt ~start sys =
  let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; options.gmin ] in
  let rec walk ~stage x_opt steps = function
    | [] -> (x_opt, steps)
    | v :: rest -> begin
        let start = match x_opt with Some (x, _, _) -> x | None -> start in
        match stage v start with
        | Some r -> walk ~stage (Some r) (steps + 1) rest
        | None -> (None, steps)  (* chain broken: give up on this path *)
      end
  in
  match walk ~stage:(fun g -> attempt ~gmin:g ~scale:1.) None 0 gmins with
  | Some r, steps -> (r, steps, 0)
  | None, _ -> begin
      let scales = [ 0.; 0.1; 0.2; 0.35; 0.5; 0.65; 0.8; 0.9; 1. ] in
      match
        walk ~stage:(fun s -> attempt ~gmin:options.gmin ~scale:s) None 0 scales
      with
      | Some r, steps -> (r, List.length gmins, steps)
      | None, _ ->
          raise
            (No_convergence
               (Printf.sprintf
                  "DC analysis of %S failed (newton, gmin stepping and \
                   source stepping all diverged)"
                  (Netlist.title (Mna.netlist sys))))
    end

let solve_u ?(options = default_options) ?guess ?companions
    ?(source_scale = 1.) ?workspace ?restamp sys ~time =
  injected_failure sys;
  let start =
    match guess with
    | Some g ->
        if Vec.dim g <> Mna.size sys then
          invalid_arg "Dc.solve: guess has wrong dimension";
        g
    | None -> Vec.create (Mna.size sys) 0.
  in
  (match workspace with
  | Some ws when ws.Mna.w_size <> Mna.size sys ->
      invalid_arg "Dc.solve: workspace size mismatch"
  | Some ws ->
      Mna.bind_restamp sys ws restamp;
      Mna.bind_time sys ws time
  | None -> ());
  let attempt ~gmin ~scale start =
    match workspace with
    | Some ws ->
        attempt_ws ~options ?companions ~source_scale sys ws ~gmin ~scale start
    | None -> (
        match
          newton_alloc ~options ~companions
            ~source_scale:(scale *. source_scale) ~restamp ~gmin sys ~time
            ~start
        with
        | Some (x, it) -> Some (x, it, 0)
        | None -> None)
  in
  let report (x, it, reuses) ~gmin_steps ~source_steps =
    {
      solution = x;
      newton_iterations = it;
      pattern_reuses = reuses;
      gmin_steps;
      source_steps;
    }
  in
  match attempt ~gmin:options.gmin ~scale:1. start with
  | Some r -> report r ~gmin_steps:0 ~source_steps:0
  | None ->
      let r, gmin_steps, source_steps = ladder ~options ~attempt ~start sys in
      report r ~gmin_steps ~source_steps

(* Bumped once per solve from the finished report's figures — never
   inside the Newton loop. *)
let tally ~it ~reuses ~gmin_steps ~source_steps =
  Obs.Counter.add c_solves 1;
  Obs.Counter.add c_newton it;
  Obs.Counter.add c_lu it;
  Obs.Counter.add c_reuse reuses;
  Obs.Counter.add c_gmin gmin_steps;
  Obs.Counter.add c_src source_steps;
  Obs.Histogram.observe h_newton it

let count_failure e =
  if Obs.active () then Obs.Counter.add c_fail 1;
  raise e

let solve ?options ?guess ?companions ?source_scale ?workspace ?restamp sys
    ~time =
  match
    solve_u ?options ?guess ?companions ?source_scale ?workspace ?restamp sys
      ~time
  with
  | r ->
      if Obs.active () then
        tally ~it:r.newton_iterations ~reuses:r.pattern_reuses
          ~gmin_steps:r.gmin_steps ~source_steps:r.source_steps;
      r
  | exception (No_convergence _ as e) -> count_failure e

(* The compiled transient step: [solve] from [guess] on a workspace whose overrides are already bound, with
   the solution left in the workspace.  The converged direct attempt —
   every step but a rare stiff one — allocates nothing: no report, no
   copy, no per-call closure.  The failpoints, the ladders and the
   counters are [solve]'s, in the same order. *)
let step_u ~options ?companions sys ws ~guess ~time =
  injected_failure sys;
  Mna.bind_time sys ws time;
  let r0 = ws.Mna.w_reuses in
  let it =
    newton_ws ~options ?companions ~source_scale:1. ~gmin:options.gmin sys ws
      ~start:guess
  in
  if it > 0 then begin
    if Obs.active () then
      tally ~it ~reuses:(ws.Mna.w_reuses - r0) ~gmin_steps:0 ~source_steps:0;
    it
  end
  else begin
    let (x, it, reuses), gmin_steps, source_steps =
      ladder ~options
        ~attempt:(fun ~gmin ~scale start ->
          attempt_ws ~options ?companions ~source_scale:1. sys ws ~gmin ~scale
            start)
        ~start:guess sys
    in
    Array.blit x 0 ws.Mna.w_x 0 (Vec.dim x);
    if Obs.active () then tally ~it ~reuses ~gmin_steps ~source_steps;
    it
  end

let step ~options ?companions sys ws ~guess ~time =
  if Vec.dim guess <> Mna.size sys || ws.Mna.w_size <> Mna.size sys then
    invalid_arg "Dc.step: size mismatch";
  match step_u ~options ?companions sys ws ~guess ~time with
  | it -> it
  | exception (No_convergence _ as e) -> count_failure e

let operating_point ?options ?guess sys ~time =
  (solve ?options ?guess sys ~time).solution

let c_adjoint = Obs.Counter.create "solver.dc.adjoint_solves"

(* Adjoint solve at a converged operating point: reassemble the system
   at the solution and transpose-solve the observable's unit vector.
   At a converged Newton fixed point the assembled matrix IS the exact
   residual Jacobian (the MOSFET companion stamps are its partial
   derivatives), but the factorization the Newton loop left behind
   belongs to the second-to-last iterate — reusing it would cost the
   last digits of the gradient, so one fresh assembly + factorization
   is paid here.  Everything downstream is a pair of triangular sweeps
   per observable: the entire gradient over all parameters costs one
   extra factorization per operating point, versus one full nonlinear
   solve per parameter for finite differences. *)
let solve_adjoint ?(options = default_options) ?companions ?restamp ?workspace
    ?(time = `Dc) sys ~x ~obs_row =
  let n = Mna.size sys in
  if Vec.dim x <> n then invalid_arg "Dc.solve_adjoint: bad solution size";
  if obs_row < 0 || obs_row >= n then
    invalid_arg "Dc.solve_adjoint: observable row out of range";
  let lambda = Vec.create n 0. in
  let e = Vec.create n 0. in
  e.(obs_row) <- 1.;
  (match workspace with
  | Some ws ->
      if ws.Mna.w_size <> n then
        invalid_arg "Dc.solve_adjoint: workspace size mismatch";
      Mna.assemble_into sys ws ~x ~time ?companions ?restamp ~gmin:options.gmin
        ();
      Mna.ws_factor ws;
      Mna.ws_solve_transpose_into ws e lambda
  | None ->
      let a, _ =
        Mna.assemble sys ~x ~time ?companions ?restamp ~gmin:options.gmin ()
      in
      let lu = Mat.lu_workspace n in
      Mat.factor_in_place a lu;
      Mat.solve_transpose_into lu e lambda);
  Obs.Counter.bump c_adjoint 1;
  lambda
