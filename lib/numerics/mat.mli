(** Dense real matrices with LU decomposition.

    Row-major storage.  Sized for modified-nodal-analysis systems of a few
    tens of unknowns, where dense partial-pivoting LU is both simplest and
    fastest. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val identity : int -> t

val of_rows : float array array -> t
(** Builds from an array of equal-length rows (copied). *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] increments element [(i,j)] by [x] — the MNA "stamp"
    primitive. *)

val copy : t -> t
val fill : t -> float -> unit

val values : t -> float array
(** The row-major backing array itself, shared: entry [(i, j)] lives at
    index [i * cols + j], and writes through it are writes to the
    matrix.  The slot-resolved stamping path of {!Circuit.Mna} adds into
    it directly. *)

val mul_vec : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val mul : t -> t -> t
(** Matrix-matrix product. *)

val transpose : t -> t

exception Singular of int
(** Raised by factorization when a pivot column is numerically zero; the
    payload is the offending elimination step. *)

type lu
(** A packed LU factorization with its pivot permutation. *)

val lu_factor : t -> lu
(** Factor a square matrix.  The input is not modified.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument if the matrix is not square. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve [A x = b] using a previous factorization of [A]. *)

val lu_workspace : int -> lu
(** [lu_workspace n] preallocates a factorization workspace for [n*n]
    systems.  The hot-path pattern is one workspace per analysis,
    refactored in place on every Newton iteration.  The workspace starts
    unfactored; {!solve_into} and {!lu_pivots} reject it until
    {!factor_in_place} succeeds. *)

val factor_in_place : t -> lu -> unit
(** [factor_in_place a ws] factors [a] into [ws] without allocating.
    The input matrix is not modified.  Arithmetic, pivot order and
    {!Singular} payloads are bit-identical to {!lu_factor}.  After a
    {!Singular} raise the workspace is left unfactored.
    @raise Singular if the matrix is numerically singular.
    @raise Invalid_argument on a non-square matrix or size mismatch. *)

val solve_into : lu -> Vec.t -> Vec.t -> unit
(** [solve_into ws b x] solves [A x = b] writing into caller-owned [x]
    ([b] is untouched; [b] and [x] must not alias).  Bit-identical to
    {!lu_solve}.
    @raise Invalid_argument on dimension mismatch, aliasing, or an
    unfactored workspace. *)

val solve_transpose_into : lu -> Vec.t -> Vec.t -> unit
(** [solve_transpose_into ws b x] solves [A^T x = b] against the same
    held factorization that {!solve_into} uses for [A x = b] — the
    adjoint-sensitivity primitive: one extra pair of triangular sweeps
    per gradient instead of one full re-simulation per parameter.  With
    [P A = L U] the transpose system factors as
    [U^T (L^T (P x)) = b]; the routine forward-substitutes through
    [U^T], back-substitutes through the unit-diagonal [L^T], and undoes
    the row permutation.  [b] is untouched; allocates one scratch
    vector (the adjoint path is once-per-gradient, not once-per-Newton).
    @raise Invalid_argument on dimension mismatch, aliasing, or an
    unfactored workspace. *)

val lu_blit : src:lu -> dst:lu -> unit
(** [lu_blit ~src ~dst] copies a factorization into another workspace of
    the same size without allocating — the continuation hot path uses it
    to retain a held factorization across Newton solves that overwrite
    the shared workspace.
    @raise Invalid_argument on size mismatch or an unfactored source. *)

type rank1
(** Scratch vectors for {!rank1_solve} — one per solver, reused across
    calls. *)

val rank1_workspace : int -> rank1
(** [rank1_workspace n] preallocates rank-1 scratch for [n]-dimensional
    systems. *)

val rank1_solve :
  lu -> rank1 -> u:Vec.t -> v:Vec.t -> dg:float -> b:Vec.t -> x:Vec.t -> bool
(** [rank1_solve ws r1 ~u ~v ~dg ~b ~x] solves
    [(A + dg * u * v^T) x = b] in O(n^2) by Sherman–Morrison against the
    held factorization [ws] of [A]: with [y = A^-1 b] and [w = A^-1 u],
    [x = y - (dg * (v.y) / (1 + dg * (v.w))) * w].  Returns [true] on
    success with [x] written; returns [false] without touching [x] when
    the denominator [1 + dg * (v.w)] fails the conditioning guard
    (catastrophic cancellation, i.e. the update is near-singular) — the
    caller must then fall back to a full refactorization, which is
    bit-exact with the ordinary {!factor_in_place}/{!solve_into} path.
    @raise Invalid_argument on dimension mismatch, aliasing of [b] and
    [x], or an unfactored workspace. *)

val lu_size : lu -> int

val lu_pivots : lu -> int array
(** The pivot permutation of a factorization (copied) — row [i] of the
    permuted system came from row [lu_pivots.(i)] of the input. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] factors and solves in one step. *)

val det : t -> float
(** Determinant via LU; [0.] for singular matrices. *)

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val pp : Format.formatter -> t -> unit
