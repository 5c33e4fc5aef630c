open Numerics

(* Value-array slots of a two-terminal conductance stamp — (i,i) (j,j)
   (i,j) (j,i) — and of a branch's incidence stamps — (i,br) (j,br)
   (br,i) (br,j).  A slot is the entry's index in the backend's value
   array ([i*n+j] dense, the CSR position sparse), [-1] where a terminal
   is ground. *)
type gslots = { ii : int; jj : int; ij : int; ji : int }
type bslots = { ib : int; jb : int; bi : int; bj : int }

(* A device with its unknown indices and matrix slots resolved at build
   time.  Assembly over this "stamp plan" performs the same float
   operations in the same order as stamping straight off the device
   list, but adds each value straight into its slot — no name hashing,
   no row search, no closure — the compile phase of the
   compile-once/restamp-many hot path.  A resistor carries its
   conductance [g0 = 1/ohms]; [k] of a capacitor or inductor is its
   companion slot, [src] of a source its source slot. *)
type rstamp =
  | R_resistor of { name : string; i : int; j : int; g0 : float; g : gslots }
  | R_capacitor of { i : int; j : int; k : int; g : gslots }
  | R_inductor of { br : int; k : int; b : bslots; bb : int }
  | R_vsource of {
      name : string;
      br : int;
      wave : Waveform.t;
      src : int;
      b : bslots;
    }
  | R_isource of {
      name : string;
      i : int;
      j : int;
      wave : Waveform.t;
      src : int;
    }
  | R_vcvs of { gain : float; b : bslots; bp : int; bn : int }
  | R_vccs of { gm : float; ip : int; in_ : int; jp : int; jn : int }
  | R_mosfet of {
      di : int;
      gi : int;
      si : int;
      model : Mos_model.t;
      beta : float;
      dg : int;
      dd : int;
      ds : int;
      sg : int;
      sd : int;
      ss : int;
    }

type reactive =
  | Cap of { a : int; b : int; farads : float }
  | Ind of { a : int; b : int; br : int; henries : float }

(* Linear-algebra backend of a compiled topology.  Both factorize with
   the same pivot rule and per-entry update sequence ({!Smat} skips only
   structurally-zero work), so detect verdicts and session bytes are
   bit-identical across backends — the backend is a pure time/space
   trade, invisible to results. *)
type backend = Dense | Sparse

type t = {
  netlist : Netlist.t;
  node_tbl : (string, int) Hashtbl.t;  (* non-ground nodes -> 0..n-1 *)
  branch_tbl : (string, int) Hashtbl.t;  (* device name -> absolute index *)
  n_nodes : int;
  size : int;
  device_array : Device.t array;
  stamp_plan : rstamp array;
  gmin_slots : int array;  (* diagonal slot of every node *)
  sources : int array;  (* plan index by source slot *)
  reactives : reactive array;  (* by companion slot *)
  backend : backend;
  shape : Smat.t option;  (* the sparse pattern; None on the dense backend *)
  n_values : int;  (* length of the backend's value array *)
}

(* Rewrite every matrix slot of a stamp. *)
let map_slots f r =
  let g s = { ii = f s.ii; jj = f s.jj; ij = f s.ij; ji = f s.ji } in
  let b s = { ib = f s.ib; jb = f s.jb; bi = f s.bi; bj = f s.bj } in
  match r with
  | R_resistor x -> R_resistor { x with g = g x.g }
  | R_capacitor x -> R_capacitor { x with g = g x.g }
  | R_inductor x -> R_inductor { x with b = b x.b; bb = f x.bb }
  | R_vsource x -> R_vsource { x with b = b x.b }
  | R_isource _ -> r
  | R_vcvs x -> R_vcvs { x with b = b x.b; bp = f x.bp; bn = f x.bn }
  | R_vccs x ->
      R_vccs { x with ip = f x.ip; in_ = f x.in_; jp = f x.jp; jn = f x.jn }
  | R_mosfet x ->
      R_mosfet
        {
          x with
          dg = f x.dg;
          dd = f x.dd;
          ds = f x.ds;
          sg = f x.sg;
          sd = f x.sd;
          ss = f x.ss;
        }

(* Above this node count a dense factorization is paying O(n^3) per
   Newton step for a matrix that is almost all structural zeros. *)
let dense_guard_nodes = 48

let dense_guard_note ?(backend = Dense) nl =
  match backend with
  | Sparse -> None
  | Dense ->
      let nodes = List.length (Netlist.nodes nl) in
      if nodes > dense_guard_nodes then
        Some
          (Printf.sprintf
             "netlist has %d nodes (> %d) on the dense backend; dense LU is \
              O(n^3) per factorization — consider --backend sparse \
              (bit-identical results)"
             nodes dense_guard_nodes)
      else None

let build ?(backend = Dense) nl =
  (match Netlist.connectivity_check nl with
  | Ok () -> ()
  | Error e -> invalid_arg ("Mna.build: " ^ e));
  let node_tbl = Hashtbl.create 32 in
  List.iteri (fun i n -> Hashtbl.replace node_tbl n i) (Netlist.nodes nl);
  let n_nodes = Hashtbl.length node_tbl in
  let branch_tbl = Hashtbl.create 8 in
  let next = ref n_nodes in
  List.iter
    (fun d ->
      if Device.has_branch_current d then begin
        Hashtbl.replace branch_tbl (Device.name d) !next;
        incr next
      end)
    (Netlist.devices nl);
  let size = !next in
  let node n =
    if Device.is_ground n then -1
    else
      match Hashtbl.find_opt node_tbl n with
      | Some i -> i
      | None -> raise Not_found
  in
  let device_array = Array.of_list (Netlist.devices nl) in
  (* companion slots: the capacitors and inductors in device order *)
  let reactive_of = function
    | Device.Capacitor { a; b; farads; _ } ->
        Some (Cap { a = node a; b = node b; farads })
    | Device.Inductor { name; a; b; henries } ->
        let br = Hashtbl.find branch_tbl name in
        Some (Ind { a = node a; b = node b; br; henries })
    | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vcvs _
    | Device.Vccs _ | Device.Mosfet _ -> None
  in
  let reactives =
    Array.of_list (List.filter_map reactive_of (Netlist.devices nl))
  in
  let resolve ~slot ~k ~src d =
    let gslots i j =
      { ii = slot i i; jj = slot j j; ij = slot i j; ji = slot j i }
    in
    let bslots i j br =
      { ib = slot i br; jb = slot j br; bi = slot br i; bj = slot br j }
    in
    match d with
    | Device.Resistor { name; a; b; ohms } ->
        let i = node a and j = node b in
        R_resistor { name; i; j; g0 = 1. /. ohms; g = gslots i j }
    | Device.Capacitor { a; b; _ } ->
        let i = node a and j = node b in
        R_capacitor { i; j; k; g = gslots i j }
    | Device.Inductor { name; a; b; _ } ->
        let br = Hashtbl.find branch_tbl name in
        R_inductor { br; k; b = bslots (node a) (node b) br; bb = slot br br }
    | Device.Vsource { name; plus; minus; wave } ->
        let br = Hashtbl.find branch_tbl name in
        let b = bslots (node plus) (node minus) br in
        R_vsource { name; br; wave; src; b }
    | Device.Isource { name; from_node; to_node; wave } ->
        R_isource { name; i = node from_node; j = node to_node; wave; src }
    | Device.Vcvs { name; plus; minus; ctrl_plus; ctrl_minus; gain } ->
        let br = Hashtbl.find branch_tbl name in
        R_vcvs
          {
            gain;
            b = bslots (node plus) (node minus) br;
            bp = slot br (node ctrl_plus);
            bn = slot br (node ctrl_minus);
          }
    | Device.Vccs { plus; minus; ctrl_plus; ctrl_minus; gm; _ } ->
        let i = node plus and j = node minus in
        let cp = node ctrl_plus and cn = node ctrl_minus in
        R_vccs
          {
            gm;
            ip = slot i cp;
            in_ = slot i cn;
            jp = slot j cp;
            jn = slot j cn;
          }
    | Device.Mosfet { drain; gate; source; model; w; l; _ } ->
        let di = node drain and gi = node gate and si = node source in
        R_mosfet
          {
            di;
            gi;
            si;
            model;
            beta = Mos_model.beta model ~w ~l;
            dg = slot di gi;
            dd = slot di di;
            ds = slot di si;
            sg = slot si gi;
            sd = slot si di;
            ss = slot si si;
          }
  in
  (* companion and source slots are numbered in device order; matrix
     slots start out dense ([i*n+j]) *)
  let dense_slot i j = if i >= 0 && j >= 0 then (i * size) + j else -1 in
  let n_reactive = ref 0 and n_sources = ref 0 and sources = ref [] in
  let stamp_plan =
    Array.mapi
      (fun p d ->
        let r = resolve ~slot:dense_slot ~k:!n_reactive ~src:!n_sources d in
        (match r with
        | R_capacitor _ | R_inductor _ -> incr n_reactive
        | R_vsource _ | R_isource _ ->
            incr n_sources;
            sources := p :: !sources
        | R_resistor _ | R_vcvs _ | R_vccs _ | R_mosfet _ -> ());
        r)
      device_array
  in
  let gmin_slots = Array.init n_nodes (fun i -> dense_slot i i) in
  let shape, stamp_plan, gmin_slots =
    match backend with
    | Dense -> (None, stamp_plan, gmin_slots)
    | Sparse ->
        (* The sparse pattern is every slot the stamps ask for, plus the
           full diagonal: gmin lands there for nodes, and branch rows
           need their structurally-zero diagonal present so sparse
           elimination visits the same slots dense partial pivoting can
           reach.  Each dense slot then moves to its CSR position. *)
        let acc = ref (List.init size (fun i -> (i, i))) in
        let note s =
          if s >= 0 then acc := (s / size, s mod size) :: !acc;
          s
        in
        Array.iter (fun r -> ignore (map_slots note r)) stamp_plan;
        let shape = Smat.create size !acc in
        let position s =
          if s < 0 then -1 else Smat.position shape (s / size) (s mod size)
        in
        Array.map_inplace (map_slots position) stamp_plan;
        Array.map_inplace position gmin_slots;
        (Some shape, stamp_plan, gmin_slots)
  in
  {
    netlist = nl;
    node_tbl;
    branch_tbl;
    n_nodes;
    size;
    device_array;
    stamp_plan;
    gmin_slots;
    sources = Array.of_list (List.rev !sources);
    reactives;
    backend;
    shape;
    n_values =
      (match shape with Some shape -> Smat.nnz shape | None -> size * size);
  }

let netlist t = t.netlist
let backend t = t.backend
let n_nodes t = t.n_nodes
let size t = t.size

let node_index t n =
  if Device.is_ground n then None
  else
    match Hashtbl.find_opt t.node_tbl n with
    | Some i -> Some i
    | None -> raise Not_found

let voltage t x n =
  match node_index t n with None -> 0. | Some i -> x.(i)

let branch_current t x name =
  match Hashtbl.find_opt t.branch_tbl name with
  | Some i -> x.(i)
  | None -> raise Not_found

let reactives t = t.reactives

(* Companion values by companion slot, refilled by the integrator every
   step: a capacitor stamps conductance [coef] in parallel with the
   current source [src]; an inductor's branch equation becomes
   [va - vb - coef*i = src]. *)
type companions = { coef : float array; src : float array }

let companions t =
  let n = Array.length t.reactives in
  { coef = Array.make n 0.; src = Array.make n 0. }

type source_time = [ `Dc | `Time of float ]

(* Value-phase overrides: a compiled topology is assembled with the
   probe's stimulus wave and fault-impact resistance substituted at stamp
   time, instead of rewriting the netlist and re-indexing it.  The stamp
   sequence is unchanged, so the assembled system is bit-identical to
   one built from a netlist that carries the overridden values. *)
type restamp = {
  stimulus : (string * Waveform.t) option;
  impact : (string * float) option;
}

let restamp_wave restamp name wave =
  match restamp with
  | Some { stimulus = Some (s, w); _ } when String.equal s name -> w
  | Some _ | None -> wave

let restamp_ohms restamp name ohms =
  match restamp with
  | Some { impact = Some (d, r); _ } when String.equal d name -> r
  | Some _ | None -> ohms

let wave_value time w =
  match time with
  | `Dc -> Waveform.dc_value w
  | `Time t -> Waveform.value w t

(* The value phase of assembly: the bound fault impact (the plan index
   of the resistor it overrides, -1 for none, and its conductance), each
   source's wave under the bound stimulus and its level at the bound
   time (by source slot), plus the MOSFET evaluation buffer.  Binding
   resolves a restamp's names once per probe and a time once per solve;
   the Newton iterations in between only read these fields. *)
type binding = {
  mutable impact_at : int;
  impact_g : float array;  (* one cell: a float field here would box *)
  waves : Waveform.t array;
  levels : float array;
  mos : Mos_model.scratch;
}

let binding t =
  let n = Array.length t.sources in
  {
    impact_at = -1;
    impact_g = [| 0. |];
    waves = Array.make n (Waveform.Dc 0.);
    levels = Array.make n 0.;
    mos = Mos_model.scratch ();
  }

let bind_restamp_into t bd restamp =
  bd.impact_at <- -1;
  (match restamp with
  | Some { impact = Some (device, ohms); _ } ->
      Array.iteri
        (fun k r ->
          match r with
          | R_resistor { name; _ }
            when bd.impact_at < 0 && String.equal name device ->
              bd.impact_at <- k;
              bd.impact_g.(0) <- 1. /. ohms
          | _ -> ())
        t.stamp_plan
  | Some { impact = None; _ } | None -> ());
  Array.iteri
    (fun src k ->
      match t.stamp_plan.(k) with
      | R_vsource { name; wave; _ } | R_isource { name; wave; _ } ->
          bd.waves.(src) <- restamp_wave restamp name wave
      | _ -> ())
    t.sources

let bind_time_into bd time =
  for src = 0 to Array.length bd.waves - 1 do
    bd.levels.(src) <- wave_value time bd.waves.(src)
  done

(* index helpers: -1 encodes ground *)
let idx t n =
  if Device.is_ground n then -1
  else
    match Hashtbl.find_opt t.node_tbl n with
    | Some i -> i
    | None -> raise Not_found

let[@inline] inject z i v = if i >= 0 then z.(i) <- z.(i) +. v
let[@inline] volt x i = if i < 0 then 0. else x.(i)

(* Accumulate into a resolved slot.  Slots come from the plan and index
   a value array of the plan's own [n_values] length (checked by every
   caller), so the access is unchecked. *)
let[@inline] add vals s v =
  if s >= 0 then Array.unsafe_set vals s (Array.unsafe_get vals s +. v)

let[@inline] conductance vals g v =
  add vals g.ii v;
  add vals g.jj v;
  add vals g.ij (-.v);
  add vals g.ji (-.v)

let[@inline] incidence vals b =
  add vals b.ib 1.;
  add vals b.jb (-1.);
  add vals b.bi 1.;
  add vals b.bj (-1.)

(* Stamping walks the resolved plan in device order — the same float
   operations, in the same order, as stamping straight off the device
   records, so the assembled system is bit-identical whichever backend
   and whichever value overrides are active.  [vals] is the backend's
   value array; one monomorphic loop serves both backends and allocates
   nothing. *)
let assemble_core t bd ~vals ~z ~x ~companions ~source_scale ~gmin =
  let diag = t.gmin_slots in
  for i = 0 to Array.length diag - 1 do
    add vals (Array.unsafe_get diag i) gmin
  done;
  let plan = t.stamp_plan in
  for k = 0 to Array.length plan - 1 do
    match Array.unsafe_get plan k with
    | R_resistor { g0; g; _ } ->
        conductance vals g (if k = bd.impact_at then bd.impact_g.(0) else g0)
    | R_capacitor { i; j; k = c; g } -> begin
        match companions with
        | Some cp ->
            let ieq = cp.src.(c) in
            conductance vals g cp.coef.(c);
            inject z i ieq;
            inject z j (-.ieq)
        | None -> ()  (* open in DC *)
      end
    | R_inductor { br; k = c; b; bb } -> begin
        (* branch current contribution to KCL, then the branch
           equation: va - vb - req*i = veq (req = 0 in DC) *)
        incidence vals b;
        match companions with
        | Some cp ->
            add vals bb (-.cp.coef.(c));
            z.(br) <- z.(br) +. cp.src.(c)
        | None -> ()
      end
    | R_vsource { br; src; b; _ } ->
        incidence vals b;
        z.(br) <- z.(br) +. (source_scale *. bd.levels.(src))
    | R_isource { i; j; src; _ } ->
        let value = source_scale *. bd.levels.(src) in
        inject z i (-.value);
        inject z j value
    | R_vcvs { gain; b; bp; bn } ->
        incidence vals b;
        add vals bp (-.gain);
        add vals bn gain
    | R_vccs { gm; ip; in_; jp; jn } ->
        add vals ip gm;
        add vals in_ (-.gm);
        add vals jp (-.gm);
        add vals jn gm
    | R_mosfet { di; gi; si; model; beta; dg; dd; ds; sg; sd; ss } ->
        let vd = volt x di and vg = volt x gi and vs = volt x si in
        let op = bd.mos in
        op.vg <- vg;
        op.vd <- vd;
        op.vs <- vs;
        ignore (Mos_model.eval_into model ~beta op);
        let d_gate = op.dg_out and d_drain = op.dd_out in
        let d_source = op.ds_out in
        (* Newton companion: ids ~ i0 + dG*vg + dD*vd + dS*vs *)
        let i0 =
          op.ids_out -. (d_gate *. vg) -. (d_drain *. vd) -. (d_source *. vs)
        in
        add vals dg d_gate;
        add vals dd d_drain;
        add vals ds d_source;
        add vals sg (-.d_gate);
        add vals sd (-.d_drain);
        add vals ss (-.d_source);
        inject z di (-.i0);
        inject z si i0
  done

(* The fault-impact restamp knob targets exactly one resistor, so the
   difference between two impact resistances r0 -> r1 is the symmetric
   rank-1 conductance stamp dg * (e_i - e_j)(e_i - e_j)^T with
   dg = 1/r1 - 1/r0 and the ground terminal (-1) dropped — the view the
   Sherman-Morrison solve and the complex-matrix update both consume. *)
type rank1_impact = { r1_i : int; r1_j : int; r1_dg : float }

let impact_site t device =
  let found = ref None in
  Array.iter
    (fun r ->
      match r with
      | R_resistor { name; i; j; _ }
        when !found = None && String.equal name device ->
          found := Some (i, j)
      | _ -> ())
    t.stamp_plan;
  !found

let impact_rank1 t ~device ~r_from ~r_to =
  match impact_site t device with
  | None -> None
  | Some (i, j) ->
      Some { r1_i = i; r1_j = j; r1_dg = (1. /. r_to) -. (1. /. r_from) }

let rank1_direction t { r1_i; r1_j; _ } u =
  if Vec.dim u <> t.size then invalid_arg "Mna.rank1_direction: bad size";
  Array.fill u 0 t.size 0.;
  if r1_i >= 0 then u.(r1_i) <- 1.;
  if r1_j >= 0 then u.(r1_j) <- -1.

(* Partial-derivative stamp views for the adjoint sensitivity layer.
   The right-hand side z depends on an independent source's DC level
   linearly through its stamp — z += level * e_br for a voltage source,
   z += level * (e_j - e_i) for a current source — so dz/dlevel is a
   fixed sparse direction resolved once from the plan.  Likewise the
   only parameter entering the system matrix A is a resistor's value:
   dA/dr = -(1/r^2) (e_i - e_j)(e_i - e_j)^T.  Both views collapse to
   one or two lambda/x reads when contracted with the adjoint vector. *)
type stimulus_site =
  | S_vsource of int  (** branch-equation row of the source *)
  | S_isource of int * int  (** from/to node indices, -1 for ground *)

let stimulus_site t device =
  let found = ref None in
  Array.iter
    (fun r ->
      match r with
      | R_vsource { name; br; _ } when !found = None && String.equal name device
        ->
          found := Some (S_vsource br)
      | R_isource { name; i; j; _ }
        when !found = None && String.equal name device ->
          found := Some (S_isource (i, j))
      | _ -> ())
    t.stamp_plan;
  !found

(* lambda^T (dz/dlevel): the whole right-hand-side derivative contracted
   with the adjoint vector.  A voltage source stamps [z.(br) += level],
   so the dot is lambda.(br); a current source stamps
   [z.(i) -= level; z.(j) += level] (ground dropped), so the dot is
   [lambda.(j) - lambda.(i)]. *)
let stimulus_adjoint_dot site lambda =
  match site with
  | S_vsource br -> lambda.(br)
  | S_isource (i, j) -> volt lambda j -. volt lambda i

(* -lambda^T (dA/dr) x for the named impact resistor at resistance
   [ohms]: with dA/dr = -(1/r^2) u u^T and u = e_i - e_j this is
   [(lambda_i - lambda_j) (x_i - x_j) / r^2].  [None] when the plan has
   no resistor of that name. *)
let impact_adjoint_dot t ~device ~ohms ~lambda ~x =
  match impact_site t device with
  | None -> None
  | Some (i, j) ->
      let dl = volt lambda i -. volt lambda j
      and dx = volt x i -. volt x j in
      Some (dl *. dx /. (ohms *. ohms))

(* The backend's system-matrix and factorization state, paired so a
   mismatch cannot be constructed through {!workspace}. *)
type engine =
  | E_dense of { ea : Mat.t; elu : Mat.lu }
  | E_sparse of { es : Smat.t; eslu : Smat.lu }

(* Preallocated per-analysis solve state: system matrix, right-hand
   side, LU workspace, the two Newton iterate buffers and the value
   phase of assembly.  One workspace is owned by exactly one running
   analysis at a time — under parallel execution each domain compiles
   (or forks) its own. *)
type workspace = {
  w_size : int;
  w_eng : engine;
  w_vals : float array;
  w_bind : binding;
  w_z : Vec.t;
  mutable w_x : Vec.t;
  mutable w_x_new : Vec.t;
  mutable w_factors : int;
  mutable w_reuses : int;
}

let workspace t =
  let w_eng, w_vals =
    match t.backend with
    | Dense ->
        let ea = Mat.create t.size t.size in
        (E_dense { ea; elu = Mat.lu_workspace t.size }, Mat.values ea)
    | Sparse ->
        let es = Smat.like (Option.get t.shape) in
        (E_sparse { es; eslu = Smat.lu_workspace t.size }, Smat.values es)
  in
  {
    w_size = t.size;
    w_eng;
    w_vals;
    w_bind = binding t;
    w_z = Vec.create t.size 0.;
    w_x = Vec.create t.size 0.;
    w_x_new = Vec.create t.size 0.;
    w_factors = 0;
    w_reuses = 0;
  }

let ws_factor ws =
  match ws.w_eng with
  | E_dense { ea; elu } ->
      Mat.factor_in_place ea elu;
      ws.w_factors <- ws.w_factors + 1;
      false
  | E_sparse { es; eslu } ->
      (* numeric replay on the held pattern when the pivot guard admits
         it; the fallback is the full symbolic pass.  Both produce the
         same factorization bit for bit, so which one ran is observable
         only through the stats. *)
      let replayed =
        Smat.refactor es eslu
        ||
        (Smat.factor_in_place es eslu;
         false)
      in
      ws.w_factors <- ws.w_factors + 1;
      if replayed then ws.w_reuses <- ws.w_reuses + 1;
      replayed

let ws_solve_into ws b x =
  match ws.w_eng with
  | E_dense { elu; _ } -> Mat.solve_into elu b x
  | E_sparse { eslu; _ } -> Smat.solve_into eslu b x

let ws_solve_transpose_into ws b x =
  match ws.w_eng with
  | E_dense { elu; _ } -> Mat.solve_transpose_into elu b x
  | E_sparse { eslu; _ } -> Smat.solve_transpose_into eslu b x

let ws_sparse_stats ws =
  match ws.w_eng with
  | E_dense _ -> None
  | E_sparse { eslu; _ } -> Some (Smat.stats eslu)

let ws_sparse_lu ws =
  match ws.w_eng with
  | E_dense _ -> None
  | E_sparse { eslu; _ } -> Some eslu

(* A retained factorization plus the scratch its rank-1 solve needs —
   the backend-agnostic face of the continuation's held state. *)
type held =
  | H_dense of { hlu : Mat.lu; hr1 : Mat.rank1; mutable hd_ok : bool }
  | H_sparse of {
      hslu : Smat.lu;
      hy : Vec.t;
      hw : Vec.t;
      mutable hs_ok : bool;
    }

let held t =
  match t.backend with
  | Dense ->
      H_dense
        {
          hlu = Mat.lu_workspace t.size;
          hr1 = Mat.rank1_workspace t.size;
          hd_ok = false;
        }
  | Sparse ->
      H_sparse
        {
          hslu = Smat.lu_workspace t.size;
          hy = Vec.create t.size 0.;
          hw = Vec.create t.size 0.;
          hs_ok = false;
        }

let held_factored = function
  | H_dense { hd_ok; _ } -> hd_ok
  | H_sparse { hs_ok; _ } -> hs_ok

let hold ws hd =
  match (ws.w_eng, hd) with
  | E_dense { elu; _ }, H_dense h ->
      Mat.lu_blit ~src:elu ~dst:h.hlu;
      h.hd_ok <- true
  | E_sparse { eslu; _ }, H_sparse h ->
      Smat.lu_blit ~src:eslu ~dst:h.hslu;
      h.hs_ok <- true
  | E_dense _, H_sparse _ | E_sparse _, H_dense _ ->
      invalid_arg "Mna.hold: workspace/held backend mismatch"

(* Sherman-Morrison against the held factorization.  The sparse arm
   replays {!Mat.rank1_solve}'s float sequence operation for operation
   (two solves, two dots, the same cancellation guard, the same update
   loop), so continuation solves stay bit-identical across backends. *)
let held_rank1_solve hd ~u ~v ~dg ~b ~x =
  match hd with
  | H_dense { hlu; hr1; hd_ok } ->
      if not hd_ok then invalid_arg "Mna.held_rank1_solve: nothing held";
      Mat.rank1_solve hlu hr1 ~u ~v ~dg ~b ~x
  | H_sparse { hslu; hy; hw; hs_ok } ->
      if not hs_ok then invalid_arg "Mna.held_rank1_solve: nothing held";
      if b == x then invalid_arg "Mna.held_rank1_solve: aliased input/output";
      Smat.solve_into hslu b hy;
      Smat.solve_into hslu u hw;
      let vty = Vec.dot v hy in
      let vtw = Vec.dot v hw in
      let denom = 1. +. (dg *. vtw) in
      if
        (not (Float.is_finite denom))
        || Float.abs denom <= 1e-10 *. (1. +. Float.abs (dg *. vtw))
      then false
      else begin
        let coef = dg *. vty /. denom in
        for i = 0 to Vec.dim x - 1 do
          x.(i) <- hy.(i) -. (coef *. hw.(i))
        done;
        true
      end

let assemble t ~x ~time ?companions ?(source_scale = 1.) ?restamp ~gmin () =
  if Vec.dim x <> t.size then invalid_arg "Mna.assemble: bad iterate size";
  let bd = binding t in
  bind_restamp_into t bd restamp;
  bind_time_into bd time;
  let z = Vec.create t.size 0. in
  let a =
    match t.backend with
    | Dense ->
        let a = Mat.create t.size t.size in
        assemble_core t bd ~vals:(Mat.values a) ~z ~x ~companions ~source_scale
          ~gmin;
        a
    | Sparse ->
        (* the plan's slots are CSR positions: stamp the sparse matrix,
           then expand it (entries outside the pattern stay exact zeros,
           as in a dense assembly) *)
        let s = Smat.like (Option.get t.shape) in
        assemble_core t bd ~vals:(Smat.values s) ~z ~x ~companions ~source_scale
          ~gmin;
        Smat.to_dense s
  in
  (a, z)

let check_workspace t ws who =
  if ws.w_size <> t.size || Array.length ws.w_vals <> t.n_values then
    invalid_arg (who ^ ": workspace does not match the system")

let bind_restamp t ws restamp =
  check_workspace t ws "Mna.bind_restamp";
  bind_restamp_into t ws.w_bind restamp

let bind_time t ws time =
  check_workspace t ws "Mna.bind_time";
  bind_time_into ws.w_bind time

let assemble_bound t ws ~x ?companions ~source_scale ~gmin () =
  if Vec.dim x <> t.size then invalid_arg "Mna.assemble_into: bad iterate size";
  check_workspace t ws "Mna.assemble_into";
  Array.fill ws.w_vals 0 t.n_values 0.;
  Array.fill ws.w_z 0 t.size 0.;
  assemble_core t ws.w_bind ~vals:ws.w_vals ~z:ws.w_z ~x ~companions
    ~source_scale ~gmin

let assemble_into t ws ~x ~time ?companions ?(source_scale = 1.) ?restamp ~gmin
    () =
  if Vec.dim x <> t.size then invalid_arg "Mna.assemble_into: bad iterate size";
  check_workspace t ws "Mna.assemble_into";
  bind_restamp_into t ws.w_bind restamp;
  bind_time_into ws.w_bind time;
  assemble_bound t ws ~x ?companions ~source_scale ~gmin ()

let mosfet_operating_points t ~x =
  Array.to_list t.device_array
  |> List.filter_map (fun d ->
         match d with
         | Device.Mosfet { name; drain; gate; source; model; w; l } ->
             let vd = volt x (idx t drain)
             and vg = volt x (idx t gate)
             and vs = volt x (idx t source) in
             Some (name, Mos_model.eval model ~w ~l ~vg ~vd ~vs)
         | Device.Resistor _ | Device.Capacitor _ | Device.Inductor _
         | Device.Vsource _ | Device.Isource _ | Device.Vcvs _
         | Device.Vccs _ -> None)
