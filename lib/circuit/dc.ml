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
  factorizations : int;
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
   factorization counter mirrors the iteration counter of the attempts
   that produced the report. *)
let c_solves = Obs.Counter.create "solver.dc.solves"
let c_newton = Obs.Counter.create "solver.dc.newton_iterations"
let c_lu = Obs.Counter.create "solver.dc.lu_factorizations"
let c_gmin = Obs.Counter.create "solver.dc.gmin_steps"
let c_src = Obs.Counter.create "solver.dc.source_steps"
let c_fail = Obs.Counter.create "solver.dc.failures"

let h_newton =
  Obs.Histogram.create "solver.dc.newton_per_solve"
    ~bounds:[| 2; 4; 8; 16; 32; 64 |]

(* Continuation counters: bumped (active-guarded) once per solve from the
   continuation bookkeeping, never inside the Newton loop. *)
let c_rank1 = Obs.Counter.create "solver.dc.rank1_solves"
let c_reuse = Obs.Counter.create "solver.dc.pattern_reuses"
let c_rank1_fb = Obs.Counter.create "solver.dc.rank1_fallbacks"
let c_warm_saved = Obs.Counter.create "solver.dc.warm_start_iters_saved"

(* Caller-owned continuation state for homotopy along the impact ladder:
   the previous converged solution (the Newton warm start), a held copy
   of the last factorization produced by a full solve, and the impact
   override under which that factorization was assembled.  When the next
   solve differs from the held one only in the impact resistance, the
   first Newton step solves against the held factorization through
   {!Mat.rank1_solve} (the fault stamp is rank-1) instead of paying a
   fresh O(n^3) factorization; later iterations — and the guard-fallback
   path — factor normally, so the converged fixed point is the same one
   the cold solver finds, within solver tolerance. *)
type continuation = {
  ct_size : int;
  mutable ct_have_x : bool;
  ct_x : Vec.t;
  ct_held : Mna.held;
  mutable ct_impact : (string * float) option;
  ct_u : Vec.t;
  mutable ct_cold_iters : int;
}

let continuation sys =
  let n = Mna.size sys in
  {
    ct_size = n;
    ct_have_x = false;
    ct_x = Vec.create n 0.;
    ct_held = Mna.held sys;
    ct_impact = None;
    ct_u = Vec.create n 0.;
    ct_cold_iters = 0;
  }

(* Per-solve rank-1 context handed to the workspace Newton loop for its
   first iteration only. *)
type rank1_ctx = {
  rk_held : Mna.held;
  rk_u : Vec.t;
  rk_dg : float;
  mutable rk_used : int;
  mutable rk_fallback : int;
}

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

(* The same Newton iteration restamping a caller-owned workspace whose
   overrides and time are already bound: the system is assembled into
   the preallocated matrix, factored in place, solved into the swap
   buffer, and the damped update overwrites it — no per-iteration
   allocation.  Every arithmetic expression matches [newton_alloc] term
   for term (the [x +. alpha *. (x_new -. x)] form is kept even at
   [alpha = 1.], where it is not a bitwise no-op), so both paths
   converge along identical trajectories.  Returns the iteration count
   of a converged attempt, whose solution is left in [ws.w_x], or 0. *)
let newton_ws ~options ?companions ~source_scale ~gmin ?rank1 sys ws ~start =
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
       (* The first iteration of a continuation solve goes through the
          held factorization by Sherman-Morrison when the conditioning
          guard admits it; everything else is the ordinary
          factor-and-solve, bit-identical to the non-continuation path. *)
       let solved_rank1 =
         match rank1 with
         | Some rk when !iters = 1 ->
             if
               Mna.held_rank1_solve rk.rk_held ~u:rk.rk_u ~v:rk.rk_u
                 ~dg:rk.rk_dg ~b:ws.Mna.w_z ~x:ws.Mna.w_x_new
             then begin
               rk.rk_used <- rk.rk_used + 1;
               true
             end
             else begin
               rk.rk_fallback <- rk.rk_fallback + 1;
               false
             end
         | Some _ | None -> false
       in
       if not solved_rank1 then begin
         ignore (Mna.ws_factor ws : bool);
         Mna.ws_solve_into ws ws.Mna.w_z ws.Mna.w_x_new
       end;
       let x = ws.Mna.w_x and x_new = ws.Mna.w_x_new in
       if Failpoint.should_fail "dc.nan_solution" then
         Array.fill x_new 0 size Float.nan;
       if not (finite_solution x_new ~n_nodes) then raise Diverged;
       let dv_max = ref 0. in
       for i = 0 to n_nodes - 1 do
         dv_max := Float.max !dv_max (Float.abs (x_new.(i) -. x.(i)))
       done;
       let alpha =
         if !dv_max > options.vlimit then options.vlimit /. !dv_max else 1.
       in
       for i = 0 to size - 1 do
         x_new.(i) <- x.(i) +. (alpha *. (x_new.(i) -. x.(i)))
       done;
       if alpha = 1. then begin
         let ok = ref true in
         for i = 0 to n_nodes - 1 do
           let dx = Float.abs (x_new.(i) -. x.(i)) in
           if dx > options.abstol +. (options.reltol *. Float.abs x_new.(i))
           then ok := false
         done;
         converged := !ok
       end;
       ws.Mna.w_x <- x_new;
       ws.Mna.w_x_new <- x
     done
   with Mat.Singular _ | Diverged -> converged := false);
  if !converged then !iters else 0

(* A workspace attempt as the stepping ladders consume it: the solution
   copied out, with the attempt's factorizations and pattern replays
   read off the workspace's own tallies. *)
let attempt_ws ~options ?companions ~source_scale ?rank1 sys ws ~gmin ~scale
    start =
  let f0 = ws.Mna.w_factors and r0 = ws.Mna.w_reuses in
  let it =
    newton_ws ~options ?companions ~source_scale:(scale *. source_scale) ~gmin
      ?rank1 sys ws ~start
  in
  if it > 0 then
    Some (Vec.copy ws.Mna.w_x, it, ws.Mna.w_factors - f0, ws.Mna.w_reuses - r0)
  else None

let injected_failure sys =
  if Failpoint.should_fail "dc.no_convergence" then
    raise
      (No_convergence
         (Printf.sprintf "injected failure at dc.no_convergence (%S)"
            (Netlist.title (Mna.netlist sys))))

(* Homotopy after a failed direct attempt, seeded from the cold start:
   gmin stepping (relax, then tighten back to the final gmin), then
   source stepping at the final gmin.  Returns the last attempt's
   result with the stages each ladder used. *)
let ladder ~options ~attempt ~start sys =
  let gmins = [ 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-8; 1e-10; options.gmin ] in
  let rec walk ~stage x_opt steps = function
    | [] -> (x_opt, steps)
    | v :: rest -> begin
        let start = match x_opt with Some (x, _, _, _) -> x | None -> start in
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
    ?(source_scale = 1.) ?workspace ?restamp ?continuation sys ~time =
  injected_failure sys;
  (match continuation with
  | Some ct when ct.ct_size <> Mna.size sys ->
      invalid_arg "Dc.solve: continuation size mismatch"
  | Some _ | None -> ());
  (* The continuation's stored iterate takes precedence over the caller's
     guess: the ladder's previous converged solution is the homotopy
     start point. *)
  let warm =
    match continuation with Some ct -> ct.ct_have_x | None -> false
  in
  let cold_start =
    match guess with
    | Some g ->
        if Vec.dim g <> Mna.size sys then
          invalid_arg "Dc.solve: guess has wrong dimension";
        g
    | None -> Vec.create (Mna.size sys) 0.
  in
  let start = if warm then (Option.get continuation).ct_x else cold_start in
  (match workspace with
  | Some ws when ws.Mna.w_size <> Mna.size sys ->
      invalid_arg "Dc.solve: workspace size mismatch"
  | Some ws ->
      Mna.bind_restamp sys ws restamp;
      Mna.bind_time sys ws time
  | None -> ());
  (* The rank-1 first-step context applies only to the direct attempt
     (nominal gmin, full source scale) and only when the held
     factorization differs from the requested system purely in the
     impact resistance of one named resistor. *)
  let rank1_ctx =
    match (continuation, workspace, restamp) with
    | Some ct, Some _, Some { Mna.impact = Some (dev, r_new); _ }
      when Mna.held_factored ct.ct_held -> begin
        match ct.ct_impact with
        | Some (dev0, r_old) when String.equal dev dev0 && r_new <> r_old
          -> begin
            match Mna.impact_rank1 sys ~device:dev ~r_from:r_old ~r_to:r_new
            with
            | Some r1 ->
                Mna.rank1_direction sys r1 ct.ct_u;
                Some
                  {
                    rk_held = ct.ct_held;
                    rk_u = ct.ct_u;
                    rk_dg = r1.Mna.r1_dg;
                    rk_used = 0;
                    rk_fallback = 0;
                  }
            | None -> None
          end
        | Some _ | None -> None
      end
    | _ -> None
  in
  let attempt ?rank1 ~gmin ~scale start =
    match workspace with
    | Some ws ->
        attempt_ws ~options ?companions ~source_scale ?rank1 sys ws ~gmin
          ~scale start
    | None -> (
        (* the allocating reference path factors once per iteration *)
        match
          newton_alloc ~options ~companions
            ~source_scale:(scale *. source_scale) ~restamp ~gmin sys ~time
            ~start
        with
        | Some (x, it) -> Some (x, it, it, 0)
        | None -> None)
  in
  (* Continuation bookkeeping for a converged solve: retain the solution
     as the next warm start; retain the workspace factorization (and the
     impact it was assembled under) whenever this solve actually
     factored — a solve that converged purely through the rank-1 path
     leaves the previously held factorization in place, which stays
     consistent because the next delta is always computed against the
     held impact. *)
  let finish (x, it, factors, reuses) ~gmin_steps ~source_steps =
    (match continuation with
    | Some ct ->
        Array.blit x 0 ct.ct_x 0 ct.ct_size;
        ct.ct_have_x <- true;
        (match workspace with
        | Some ws when factors > 0 ->
            Mna.hold ws ct.ct_held;
            ct.ct_impact <-
              (match restamp with Some r -> r.Mna.impact | None -> None)
        | Some _ | None -> ());
        (match rank1_ctx with
        | Some rk ->
            Obs.Counter.bump c_rank1 rk.rk_used;
            Obs.Counter.bump c_rank1_fb rk.rk_fallback
        | None -> ());
        if warm then begin
          if ct.ct_cold_iters > 0 then
            Obs.Counter.bump c_warm_saved (max 0 (ct.ct_cold_iters - it))
        end
        else ct.ct_cold_iters <- it
    | None -> ());
    {
      solution = x;
      newton_iterations = it;
      factorizations = factors;
      pattern_reuses = reuses;
      gmin_steps;
      source_steps;
    }
  in
  let direct =
    match attempt ?rank1:rank1_ctx ~gmin:options.gmin ~scale:1. start with
    | Some _ as converged -> converged
    | None when warm ->
        (* A poisoned warm start must never cost convergence: near a
           discontinuity of the solution branch (a fault railing the
           circuit at one impact, releasing it at the next) the previous
           iterate can sit in a basin Newton cannot leave.  Replay the
           cold path exactly — same start, no rank-1 — before escalating
           to the stepping ladders. *)
        attempt ~gmin:options.gmin ~scale:1. cold_start
    | None -> None
  in
  match direct with
  | Some r -> finish r ~gmin_steps:0 ~source_steps:0
  | None ->
      (* seeded from the cold start, like the cold path, never from a
         failed warm iterate *)
      let r, gmin_steps, source_steps =
        ladder ~options
          ~attempt:(fun ~gmin ~scale start -> attempt ~gmin ~scale start)
          ~start:cold_start sys
      in
      finish r ~gmin_steps ~source_steps

(* Bumped once per solve from the finished report's figures — never
   inside the Newton loop. *)
let tally ~it ~factors ~reuses ~gmin_steps ~source_steps =
  Obs.Counter.add c_solves 1;
  Obs.Counter.add c_newton it;
  Obs.Counter.add c_lu factors;
  Obs.Counter.add c_reuse reuses;
  Obs.Counter.add c_gmin gmin_steps;
  Obs.Counter.add c_src source_steps;
  Obs.Histogram.observe h_newton it

let count_failure e =
  if Obs.active () then Obs.Counter.add c_fail 1;
  raise e

let solve ?options ?guess ?companions ?source_scale ?workspace ?restamp
    ?continuation sys ~time =
  match
    solve_u ?options ?guess ?companions ?source_scale ?workspace ?restamp
      ?continuation sys ~time
  with
  | r ->
      if Obs.active () then
        tally ~it:r.newton_iterations ~factors:r.factorizations
          ~reuses:r.pattern_reuses ~gmin_steps:r.gmin_steps
          ~source_steps:r.source_steps;
      r
  | exception (No_convergence _ as e) -> count_failure e

(* The compiled transient step: [solve] from [guess] without a
   continuation, on a workspace whose overrides are already bound, with
   the solution left in the workspace.  The converged direct attempt —
   every step but a rare stiff one — allocates nothing: no report, no
   copy, no per-call closure.  The failpoints, the ladders and the
   counters are [solve]'s, in the same order. *)
let step_u ~options ?companions sys ws ~guess ~time =
  injected_failure sys;
  Mna.bind_time sys ws time;
  let f0 = ws.Mna.w_factors and r0 = ws.Mna.w_reuses in
  let it =
    newton_ws ~options ?companions ~source_scale:1. ~gmin:options.gmin sys ws
      ~start:guess
  in
  if it > 0 then begin
    if Obs.active () then
      tally ~it ~factors:(ws.Mna.w_factors - f0) ~reuses:(ws.Mna.w_reuses - r0)
        ~gmin_steps:0 ~source_steps:0;
    it
  end
  else begin
    let (x, it, factors, reuses), gmin_steps, source_steps =
      ladder ~options
        ~attempt:(fun ~gmin ~scale start ->
          attempt_ws ~options ?companions ~source_scale:1. sys ws ~gmin ~scale
            start)
        ~start:guess sys
    in
    Array.blit x 0 ws.Mna.w_x 0 (Vec.dim x);
    if Obs.active () then tally ~it ~factors ~reuses ~gmin_steps ~source_steps;
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
      ignore (Mna.ws_factor ws : bool);
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
