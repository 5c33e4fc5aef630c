(** SPICE level-1 (Shichman–Hodges) MOSFET model.

    Square-law drain current with channel-length modulation.  The body
    terminal is assumed tied to the appropriate rail; body effect is not
    modelled (the paper's methodology depends only on a qualitatively
    correct nonlinear macro, not on deep-submicron accuracy).  PMOS
    devices are handled by voltage mirroring, drain/source inversion by
    terminal swap, exactly as in SPICE. *)

type polarity = Nmos | Pmos

type t = {
  model_name : string;
  polarity : polarity;
  vt0 : float;  (** zero-bias threshold; positive for NMOS, negative for PMOS *)
  kp : float;   (** transconductance parameter mu*Cox, A/V^2 *)
  lambda : float;  (** channel-length modulation, 1/V *)
}

val nmos_default : t
(** Generic 1990s 1-um NMOS: Vt0 = 0.7 V, kp = 120 uA/V^2, lambda = 0.05. *)

val pmos_default : t
(** Generic PMOS counterpart: Vt0 = -0.8 V, kp = 40 uA/V^2, lambda = 0.08. *)

val with_variation : t -> dvt0:float -> dkp:float -> dlambda:float -> t
(** Relative process shifts: [dvt0] etc. are fractional deviations, e.g.
    [dvt0 = 0.1] raises |Vt0| by 10 %. *)

type operating_point = {
  ids : float;
      (** channel current flowing from the drain pin to the source pin *)
  d_gate : float;    (** d ids / d v(gate) *)
  d_drain : float;   (** d ids / d v(drain) *)
  d_source : float;  (** d ids / d v(source) *)
  region : [ `Cutoff | `Triode | `Saturation ];
}

val eval : t -> w:float -> l:float -> vg:float -> vd:float -> vs:float ->
  operating_point
(** Channel current and its partial derivatives at the given absolute
    terminal voltages.  Consistent for both polarities and both operation
    directions (vds of either sign); the derivatives form the exact
    Jacobian of [ids], which the Newton solver stamps directly.
    @raise Invalid_argument if [w] or [l] is not positive. *)

type scratch = {
  mutable vg : float;  (** in: gate voltage *)
  mutable vd : float;  (** in: drain voltage *)
  mutable vs : float;  (** in: source voltage *)
  mutable ids_out : float;  (** out: channel current, drain pin to source pin *)
  mutable dg_out : float;  (** out: d ids / d v(gate) *)
  mutable dd_out : float;  (** out: d ids / d v(drain) *)
  mutable ds_out : float;  (** out: d ids / d v(source) *)
}
(** Caller-owned evaluation buffer.  Every field is a float, so the
    record is stored flat and reads and writes never box. *)

val scratch : unit -> scratch
(** A zeroed buffer. *)

val beta : t -> w:float -> l:float -> float
(** The device transconductance factor [kp * w / l] — a constant of the
    compiled device, hoisted out of the Newton loop.
    @raise Invalid_argument if [w] or [l] is not positive. *)

val eval_into :
  t -> beta:float -> scratch -> [ `Cutoff | `Triode | `Saturation ]
(** {!eval} of a device with factor [beta] (see {!beta}) on the terminal
    voltages held in the buffer, writing the current and its partials
    back into it — bit-identical to {!eval}, without allocating.
    Returns the region. *)
