(** Modified nodal analysis: unknown ordering and system assembly.

    The unknown vector [x] is the non-ground node voltages followed by one
    branch current per voltage source, VCVS and inductor.  {!assemble}
    produces the linearized system [A x = z] at a given iterate — for
    linear elements this is the exact system; for MOSFETs it is the
    Newton companion linearization, so a fixed point of
    [x = solve (assemble x)] is an exact operating point. *)

type t

type backend = Dense | Sparse
(** Linear-algebra backend of a compiled topology.  [Dense] factors
    through {!Numerics.Mat}; [Sparse] compiles the stamp plan's slot
    pattern once and factors through {!Numerics.Smat}.  Both perform the
    same pivot choices and the same per-entry update sequence, so detect
    verdicts and session bytes are bit-identical across backends — the
    backend is a pure time/space trade, invisible to results. *)

val build : ?backend:backend -> Netlist.t -> t
(** Index the netlist ([backend] defaults to [Dense]).
    @raise Invalid_argument if the netlist fails
    {!Netlist.connectivity_check}. *)

val dense_guard_nodes : int
(** Node count above which dense LU is a measurably poor fit (48). *)

val dense_guard_note : ?backend:backend -> Netlist.t -> string option
(** [Some note] when [backend] is [Dense] and the netlist exceeds
    {!dense_guard_nodes} nodes — the advisory every entry path accepting
    a backend choice (CLI subcommands, fuzz campaigns, the serve
    daemon) must surface, so no route silently runs a 100+-node macro
    on dense LU.  [None] on [Sparse] or small netlists.  Advisory only:
    results are bit-identical across backends either way. *)

val backend : t -> backend
val netlist : t -> Netlist.t
val n_nodes : t -> int
val size : t -> int
(** Total unknown count (nodes + branches). *)

val node_index : t -> string -> int option
(** [None] for ground.  @raise Not_found for an unknown node name. *)

val voltage : t -> Numerics.Vec.t -> string -> float
(** Voltage of a node in a solution vector; [0.] for ground.
    @raise Not_found for an unknown node name. *)

val branch_current : t -> Numerics.Vec.t -> string -> float
(** Branch current of a voltage source / VCVS / inductor by device name.
    @raise Not_found if the device has no branch unknown. *)

type reactive =
  | Cap of { a : int; b : int; farads : float }
  | Ind of { a : int; b : int; br : int; henries : float }
      (** A capacitor or inductor with its terminals resolved to unknown
          indices ([-1] for ground) and, for an inductor, its branch
          unknown. *)

val reactives : t -> reactive array
(** The plan's capacitors and inductors in device order: entry [k] owns
    companion slot [k]. *)

type companions = { coef : float array; src : float array }
(** Companion values by companion slot, refilled by the integrator each
    step.  A capacitor becomes conductance [coef.(k)] in parallel with a
    current source: device current (a to b) equals
    [coef.(k)*(va - vb) - src.(k)].  An inductor's branch equation
    becomes [va - vb - coef.(k)*i = src.(k)]. *)

val companions : t -> companions
(** Zeroed companion slots for the plan's {!reactives}. *)

type source_time = [ `Dc | `Time of float ]
(** [`Dc] evaluates waveforms with {!Waveform.dc_value}; [`Time t] with
    {!Waveform.value}. *)

type restamp = {
  stimulus : (string * Waveform.t) option;
      (** substitute this wave for the named independent source *)
  impact : (string * float) option;
      (** substitute this resistance for the named resistor (the
          fault-impact knob of the convergence loop) *)
}
(** Value-phase overrides for a compiled topology: assembly substitutes
    the probe's stimulus wave and fault-impact resistance at stamp time
    instead of rewriting the netlist and re-indexing it.  The stamp
    sequence is unchanged, so the assembled system is bit-identical to
    one built from a netlist carrying the overridden values. *)

val restamp_ohms : restamp option -> string -> float -> float
(** The resistance a named resistor stamps under an override set —
    shared with the small-signal and noise stampers so every analysis
    sees the same fault impact. *)

val impact_site : t -> string -> (int * int) option
(** Unknown indices of a named resistor's terminals, or [None] if the
    plan has no resistor of that name (e.g. the fault device is absent
    from this configuration's topology). *)

type stimulus_site =
  | S_vsource of int  (** branch-equation row of the source *)
  | S_isource of int * int  (** from/to node indices, [-1] for ground *)
      (** Where an independent source's DC level enters the right-hand
          side: the derivative stamp view [dz/dlevel] resolved once from
          the compiled plan. *)

val stimulus_site : t -> string -> stimulus_site option
(** The derivative stamp view of a named independent source, or [None]
    if the plan has no source of that name. *)

val stimulus_adjoint_dot : stimulus_site -> Numerics.Vec.t -> float
(** [stimulus_adjoint_dot site lambda] is [lambda^T (dz/dlevel)] — the
    right-hand-side derivative contracted with an adjoint vector:
    [lambda.(br)] for a voltage source, [lambda_j - lambda_i] for a
    current source (ground terminals contribute nothing). *)

val impact_adjoint_dot :
  t ->
  device:string ->
  ohms:float ->
  lambda:Numerics.Vec.t ->
  x:Numerics.Vec.t ->
  float option
(** [-lambda^T (dA/dr) x] for the named fault-impact resistor at
    resistance [ohms]: the sensitivity of an adjoint observable to the
    impact resistance, [(lambda_i - lambda_j)(x_i - x_j) / r^2].
    [None] if the plan has no resistor of that name. *)

type engine
(** A backend's paired system matrix and factorization state. *)

type binding
(** The value phase of assembly: the bound fault impact (which resistor,
    at what conductance), the source waves under a bound stimulus and
    their levels at a bound time, and the MOSFET evaluation buffer. *)

type workspace = {
  w_size : int;
  w_eng : engine;  (** system matrix + factorization, backend-matched *)
  w_vals : Numerics.Vec.t;
      (** the system matrix's value array, which assembly adds into
          through the plan's resolved slots *)
  w_bind : binding;
  w_z : Numerics.Vec.t;  (** right-hand side *)
  mutable w_x : Numerics.Vec.t;  (** Newton iterate *)
  mutable w_x_new : Numerics.Vec.t;  (** Newton solve output / next iterate *)
  mutable w_reuses : int;
      (** factorizations by {!ws_factor} so far that were sparse pattern
          replays *)
}
(** Preallocated solve state sized for one compiled topology.  The two
    iterate buffers are swapped (never reallocated) by the Newton loop.
    A workspace is owned by exactly one running analysis at a time;
    under parallel execution each domain creates its own.  The system
    matrix and factorization live behind {!engine} so the Newton loop is
    backend-agnostic through {!ws_factor} / {!ws_solve_into}. *)

val workspace : t -> workspace
(** A workspace on the topology's backend. *)

val ws_factor : workspace -> unit
(** Factor the workspace's assembled system in place.  The sparse
    backend replays a held pattern ({!Numerics.Smat.refactor}) when it
    can instead of paying the full symbolic pass — a pure optimization,
    bit-identical either way, counted in [w_reuses].
    @raise Numerics.Mat.Singular if the system is numerically singular
    (same payload on both backends). *)

val ws_solve_into : workspace -> Numerics.Vec.t -> Numerics.Vec.t -> unit
(** Solve against the last {!ws_factor} — {!Numerics.Mat.solve_into} or
    its bit-identical sparse counterpart. *)

val ws_solve_transpose_into :
  workspace -> Numerics.Vec.t -> Numerics.Vec.t -> unit
(** Transpose (adjoint) solve against the last {!ws_factor}. *)

val ws_sparse_stats : workspace -> Numerics.Smat.stats option
(** Factor/reuse counters of the sparse engine; [None] on dense. *)

val ws_sparse_lu : workspace -> Numerics.Smat.lu option
(** The sparse factorization workspace, for blocked multi-RHS solves
    ({!Numerics.Smat.solve_block}); [None] on dense. *)

val assemble :
  t ->
  x:Numerics.Vec.t ->
  time:source_time ->
  ?companions:companions ->
  ?source_scale:float ->
  ?restamp:restamp ->
  gmin:float ->
  unit ->
  Numerics.Mat.t * Numerics.Vec.t
(** Build the linearized MNA system at iterate [x] into a fresh dense
    matrix, whichever the backend.  [gmin] is added from every node to
    ground.  [source_scale] (default 1) multiplies all independent
    source values — the knob used by source stepping.  Without
    [companions], capacitors are open and inductors are shorts (DC
    treatment). *)

val assemble_into :
  t ->
  workspace ->
  x:Numerics.Vec.t ->
  time:source_time ->
  ?companions:companions ->
  ?source_scale:float ->
  ?restamp:restamp ->
  gmin:float ->
  unit ->
  unit
(** {!assemble} into the workspace's preallocated system: {!bind_restamp}
    and {!bind_time}, then {!assemble_bound}.  The result is
    bit-identical to {!assemble}.
    @raise Invalid_argument on a size mismatch or a workspace of another
    plan's shape. *)

(** {2 The compiled step}

    {!assemble_into} split into its phases, so a solver can resolve a
    probe's overrides once, its source levels once per time point, and
    then assemble every Newton iteration without allocating. *)

val bind_restamp : t -> workspace -> restamp option -> unit
(** Resolve the overrides to plan indices — the impact resistor and its
    conductance, every source's wave — held in the workspace until the
    next bind. *)

val bind_time : t -> workspace -> source_time -> unit
(** Evaluate every source's bound wave at [time]. *)

val assemble_bound :
  t ->
  workspace ->
  x:Numerics.Vec.t ->
  ?companions:companions ->
  source_scale:float ->
  gmin:float ->
  unit ->
  unit
(** Zero the workspace system and stamp it at iterate [x] under the
    bound overrides and time — allocation-free. *)

val mosfet_operating_points :
  t -> x:Numerics.Vec.t -> (string * Mos_model.operating_point) list
(** Per-MOSFET bias details at a solution — used by AC analysis and by
    diagnostics. *)
