open Numerics

type method_ = Backward_euler | Trapezoidal

type probe = { node : string; values : float array }

type result = { times : float array; probes : probe list }

let probe_values r node =
  match List.find_opt (fun p -> String.equal p.node node) r.probes with
  | Some p -> p.values
  | None -> raise Not_found

exception Step_failure of { time : float; reason : string }

let[@inline] volt x i = if i < 0 then 0. else x.(i)

(* Refill the companion slots for a step of length [h] from the previous
   solution and, for the trapezoidal rule, the capacitor currents at the
   previous time point. *)
let fill_companions reactives (cp : Mna.companions) ~method_ ~h ~x_prev ~cap_i =
  for k = 0 to Array.length reactives - 1 do
    match reactives.(k) with
    | Mna.Cap { a; b; farads = c } -> begin
        let v_prev = volt x_prev a -. volt x_prev b in
        match method_ with
        | Backward_euler ->
            let geq = c /. h in
            cp.coef.(k) <- geq;
            cp.src.(k) <- geq *. v_prev
        | Trapezoidal ->
            let geq = 2. *. c /. h in
            cp.coef.(k) <- geq;
            cp.src.(k) <- (geq *. v_prev) +. cap_i.(k)
      end
    | Mna.Ind { a; b; br; henries = l } -> begin
        let i_prev = x_prev.(br) in
        match method_ with
        | Backward_euler ->
            let req = l /. h in
            cp.coef.(k) <- req;
            cp.src.(k) <- -.req *. i_prev
        | Trapezoidal ->
            let req = 2. *. l /. h in
            let v_prev = volt x_prev a -. volt x_prev b in
            cp.coef.(k) <- req;
            cp.src.(k) <- (-.req *. i_prev) -. v_prev
      end
  done

let update_cap_currents reactives (cp : Mna.companions) ~x ~cap_i =
  for k = 0 to Array.length reactives - 1 do
    match reactives.(k) with
    | Mna.Cap { a; b; _ } ->
        cap_i.(k) <- (cp.coef.(k) *. (volt x a -. volt x b)) -. cp.src.(k)
    | Mna.Ind _ -> ()
  done

(* Bumped once per simulation from locals, never per step: accepted
   top-level steps, top-level steps that needed local refinement, and
   the Newton iterations of every accepted step solve (a refined step's
   sub-steps each count once). *)
let c_simulations = Obs.Counter.create "solver.tran.simulations"
let c_steps = Obs.Counter.create "solver.tran.steps"
let c_refined = Obs.Counter.create "solver.tran.refined_steps"
let newton_bounds = [| 1; 2; 3; 4; 5; 6; 8; 16 |]

let h_newton =
  Obs.Histogram.create "solver.tran.newton_per_step" ~bounds:newton_bounds

(* the local tally: index = iterations, the last cell everything above
   the top bound *)
let tally_cells = newton_bounds.(Array.length newton_bounds - 1) + 2

let max_depth = 4

let simulate ?(options = Dc.default_options) ?(method_ = Backward_euler)
    ?workspace ?restamp ?continuation sys ~tstop ~dt ~observe =
  if tstop <= 0. then invalid_arg "Tran.simulate: tstop must be > 0";
  if dt <= 0. then invalid_arg "Tran.simulate: dt must be > 0";
  let n_steps = int_of_float (Float.round (tstop /. dt)) in
  let n_steps = Int.max n_steps 1 in
  let n = Mna.size sys in
  let reactives = Mna.reactives sys in
  let cp = Mna.companions sys in
  let companions = Some cp in
  (* trapezoidal capacitor currents at the previous time point *)
  let cap_i = Array.make (Array.length reactives) 0. in
  (* Only the initial operating point takes the continuation: per-step
     solves already warm-start from the previous step, and their
     companion-laden systems would poison the held factorization for the
     next probe's t=0 solve. *)
  let x0 =
    (Dc.solve ~options ?workspace ?restamp ?continuation sys
       ~time:(`Time 0.))
      .Dc.solution
  in
  let observe_idx =
    Array.of_list
      (List.map
         (fun node ->
           match Mna.node_index sys node with Some i -> i | None -> -1)
         observe)
  in
  let records = Array.map (fun _ -> Array.make (n_steps + 1) 0.) observe_idx in
  let record k x =
    for p = 0 to Array.length observe_idx - 1 do
      records.(p).(k) <- volt x observe_idx.(p)
    done
  in
  record 0 x0;
  (match workspace with
  | Some ws -> Mna.bind_restamp sys ws restamp
  | None -> ());
  let tally = Array.make tally_cells 0 in
  let refined = ref 0 in
  let note it =
    let c = Int.min it (tally_cells - 1) in
    tally.(c) <- tally.(c) + 1
  in
  (* One step solve from [x_prev] into [x_out] (which may alias it: the
     solvers write the output only on success).  The compiled path
     solves in the workspace; the reference path allocates a system per
     Newton iteration. *)
  let solve ~t_next ~x_prev ~x_out =
    match workspace with
    | Some ws ->
        note
          (Dc.step ~options ?companions sys ws ~guess:x_prev
             ~time:(`Time t_next));
        Array.blit ws.Mna.w_x 0 x_out 0 n
    | None ->
        let r =
          Dc.solve ~options ~guess:x_prev ?companions ?restamp sys
            ~time:(`Time t_next)
        in
        note r.Dc.newton_iterations;
        Array.blit r.Dc.solution 0 x_out 0 n
  in
  (* a midpoint buffer per refinement depth *)
  let mids = Array.init max_depth (fun _ -> Vec.create n 0.) in
  (* advance from t_prev to t_next; on Newton failure, refine locally *)
  let rec advance ~depth ~t_prev ~t_next x_prev x_out =
    fill_companions reactives cp ~method_ ~h:(t_next -. t_prev) ~x_prev ~cap_i;
    match solve ~t_next ~x_prev ~x_out with
    | () -> update_cap_currents reactives cp ~x:x_out ~cap_i
    | exception Dc.No_convergence reason ->
        if depth >= max_depth then
          raise (Step_failure { time = t_next; reason })
        else begin
          if depth = 0 then incr refined;
          let t_mid = 0.5 *. (t_prev +. t_next) in
          let x_mid = mids.(depth) in
          advance ~depth:(depth + 1) ~t_prev ~t_next:t_mid x_prev x_mid;
          advance ~depth:(depth + 1) ~t_prev:t_mid ~t_next x_mid x_out
        end
  in
  let x = Vec.copy x0 in
  let times = Array.make (n_steps + 1) 0. in
  for k = 1 to n_steps do
    let t_prev = dt *. float_of_int (k - 1) in
    let t_next = dt *. float_of_int k in
    times.(k) <- t_next;
    if Numerics.Failpoint.should_fail "tran.step_failure" then
      raise
        (Step_failure
           { time = t_next; reason = "injected failure at tran.step_failure" });
    advance ~depth:0 ~t_prev ~t_next x x;
    record k x
  done;
  if Obs.active () then begin
    Obs.Counter.add c_simulations 1;
    Obs.Counter.add c_steps n_steps;
    Obs.Counter.add c_refined !refined;
    Array.iteri
      (fun it count ->
        if count > 0 then Obs.Histogram.observe_n h_newton it count)
      tally
  end;
  {
    times;
    probes = List.mapi (fun p node -> { node; values = records.(p) }) observe;
  }
