(** Bundled per-configuration evaluation context.

    An evaluator owns everything needed to answer "what is [S_f(T)] for
    this configuration?": the nominal target, the calibrated box model
    and an execution profile.  Nominal observables are memoized per
    parameter value set, which makes the impact-convergence loop (many
    impacts, same [T]) cheap. *)

type t

type mode = [ `Legacy | `Compiled ]
(** How measurements reach the simulator.  [`Compiled] (the default)
    caches one compiled execution plan per topology — the nominal
    netlist, and one per fault {e site} ({!Faults.Fault.id} excludes the
    impact resistance, which restamps as a value) — so each optimizer
    probe restamps a preallocated workspace instead of rewriting and
    re-indexing the netlist.  [`Legacy] rebuilds per probe; it exists as
    the reference implementation for parity tests and benchmarks.  Both
    modes produce bit-identical observables. *)

exception Budget_exhausted of { config_id : int; budget : int }
(** Raised by a faulty-circuit evaluation once the shared evaluation
    counter reaches the budget installed with {!set_budget} — the retry
    ladder's per-attempt cap.  Deliberately distinct from
    {!Execute.Execution_failure} so it is never mistaken for a detected
    fault. *)

val create :
  ?profile:Execute.profile ->
  ?mode:mode ->
  ?batching:bool ->
  ?backend:Circuit.Mna.backend ->
  Test_config.t ->
  nominal:Execute.target ->
  box_model:Tolerance.t ->
  t
(** [backend] (default [Dense]) selects the linear-algebra engine every
    compiled plan of this evaluator is built on; results are
    bit-identical across backends (see {!Circuit.Mna.backend}).

    [batching] (default [true]) admits this evaluator's cross-product
    sweeps into config-major batched evaluation
    ({!batched_fault_sensitivities}); disabling it forces every consumer
    onto the sequential per-(fault, point) path — the reference
    implementation batched results are bit-compared against. *)

val with_profile : t -> Execute.profile -> t
(** A derived evaluator with a different execution profile (used by the
    resilience retry ladder).  Configuration, target, box model, the
    evaluation counter and the budget cell are shared with the parent;
    the nominal-observable cache is fresh (cached values depend on the
    profile).  Compiled plans are shared — they capture topology, not
    profile, and the retry ladder runs sequentially in one domain. *)

val fork : t -> t
(** A worker-private copy for parallel execution: shares the immutable
    configuration, target, box model and profile, but owns a private
    nominal-observable cache (warm-started from the parent's entries)
    and zeroed evaluation/budget/cache counters, so domains never touch
    shared mutable state.  The compiled-plan cache starts empty: plans
    own mutable solver workspaces and must never cross domains.
    Determinism is unaffected: cache keys are exact and cached values
    deterministic, so a cold and a warm cache produce bit-identical
    results. *)

val absorb : into:t -> t -> unit
(** [absorb ~into:parent child] merges a fork back: counters are summed
    and cache entries unioned.  Both operations commute, so the merged
    statistics are independent of worker scheduling and of the order
    forks are absorbed in — the deterministic merge of per-domain cache
    statistics.  A no-op when [parent == child]. *)

val config : t -> Test_config.t
val config_id : t -> int
val nominal_target : t -> Execute.target
val profile : t -> Execute.profile
val mode : t -> mode

val batching_enabled : t -> bool
(** Whether {!create} admitted config-major batched evaluation. *)

val set_budget : t -> int option -> unit
(** Install (or clear, with [None]) an absolute evaluation-count budget:
    once {!evaluation_count} reaches it, the next faulty evaluation
    raises {!Budget_exhausted}.  Shared with evaluators derived via
    {!with_profile}. *)

val nominal_observables : t -> Numerics.Vec.t -> float array
(** Memoized nominal measurement at the given parameter values. *)

val box : t -> Numerics.Vec.t -> float array

val detected_sentinel : float
(** Sensitivity assigned when the faulty circuit cannot be simulated at
    all (-1e6): a macro whose faulty version does not even reach an
    operating point is trivially caught on the tester. *)

val sensitivity : t -> Faults.Fault.t -> Numerics.Vec.t -> float
(** [S_f(T)]: injects the fault into the nominal netlist, measures, and
    scores against the memoized nominal response and the box model.
    Returns {!detected_sentinel} if the faulty simulation fails.
    @raise Execute.Execution_failure if the {e nominal} simulation fails
    (a setup error, not a fault effect). *)

val sensitivity_and_deviation :
  t -> Faults.Fault.t -> Numerics.Vec.t -> float * float array
(** Sensitivity together with the per-return-value deviations (reports).
    The deviation array is empty when the faulty simulation failed. *)

val sensitivity_gradient :
  t -> Faults.Fault.t -> Numerics.Vec.t -> (float * float array) option
(** [Some (S_f(T), dS/dp)] by the adjoint chain — one faulty solve plus
    one transpose solve per operating point instead of one solve per
    parameter — when the configuration admits the analytic gradient
    (compiled mode, [Dc_levels] analysis); [None] tells the caller to
    fall back to finite-difference probing, at no evaluation cost.  The
    value part is bit-identical to {!sensitivity} at the same point:
    same solver trajectories, same box arithmetic.  A successful call
    charges exactly one evaluation, like one oracle probe; nominal
    responses and their gradients are memoized per parameter point.  If
    the faulty simulation fails, returns {!detected_sentinel} with a
    zero gradient (trivially detected, and flat — a descent stops
    there).
    @raise Execute.Execution_failure if the {e nominal} simulation
    fails. *)

val faulty_observables : t -> Faults.Fault.t -> Numerics.Vec.t -> float array
(** Raw faulty measurement (no memoization).
    @raise Execute.Execution_failure on simulator failure. *)

val batched_fault_sensitivities :
  t ->
  faults:Faults.Fault.t array ->
  points:Numerics.Vec.t array ->
  (float * float array) array array option
(** Config-major batched evaluation of the full (fault x parameter
    point) cross-product: faults are grouped by site (one compiled
    topology per {!Faults.Fault.id}), each fault pays one restamp and
    one factorization — a numeric-only pattern replay on the sparse
    backend — and every probe level of every point solves against that
    held factorization in blocked panels
    ({!Execute.compiled_batch_over_faults}).

    [Some cells] has [cells.(f).(p)] {e bitwise identical} to
    [sensitivity_and_deviation t faults.(f) points.(p)] on the
    sequential path, with identical nominal-cache accounting and exactly
    one evaluation charged per pair in (fault-major) deterministic
    order; pairs the batch engine could not settle are recomputed by the
    verbatim sequential call (counted under
    [evaluator.batch.fallback_seq]).

    [None] — caller keeps its sequential loop — when batching is
    disabled, the evaluator is in legacy mode, the plan
    family is non-batchable (nonlinear topology or a non-DC-levels
    analysis), or failure injection is active (batching would reorder
    the injection draws).
    @raise Execute.Execution_failure if the nominal simulation fails.
    @raise Budget_exhausted as the sequential walk would. *)

val batched_sensitivity : t -> Faults.Fault.t -> Numerics.Vec.t -> float
(** The single-pair degenerate case of {!batched_fault_sensitivities},
    falling back to {!sensitivity} when not batchable — bit-identical to
    {!sensitivity} either way. *)

val sensitivity_of_target : t -> Execute.target -> Numerics.Vec.t -> float
(** Score an arbitrary target (e.g. a fault-free circuit at a Monte-Carlo
    process point) against this evaluator's nominal response and box —
    the production pass/fail decision: negative means the part fails the
    test.  Returns {!detected_sentinel} if the target cannot be
    simulated. *)

val evaluation_count : t -> int
(** Number of faulty-circuit simulations performed so far. *)

type cache_stats = { hits : int; misses : int; entries : int }

val cache_stats : t -> cache_stats
(** Nominal-observable cache statistics (memoization hits/misses and
    live entries) — summed across absorbed forks by {!absorb}. *)

type batch_stats = { faults_batched : int; fallback_seq : int; panels : int }

val batch_stats : unit -> batch_stats
(** Process-wide config-major batching statistics: (fault, point) pairs
    settled by the batch engine, pairs that fell back to the sequential
    path (declined batches included), and held-factorization panels
    actually built.  Backed by the registered [evaluator.batch.*]
    counters, maintained whether or not tracing is active. *)
