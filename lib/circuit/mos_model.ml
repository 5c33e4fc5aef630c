type polarity = Nmos | Pmos

type t = {
  model_name : string;
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
}

let nmos_default =
  { model_name = "nmos1"; polarity = Nmos; vt0 = 0.7; kp = 120e-6; lambda = 0.05 }

let pmos_default =
  { model_name = "pmos1"; polarity = Pmos; vt0 = -0.8; kp = 40e-6; lambda = 0.08 }

let with_variation m ~dvt0 ~dkp ~dlambda =
  {
    m with
    vt0 = m.vt0 *. (1. +. dvt0);
    kp = m.kp *. (1. +. dkp);
    lambda = m.lambda *. (1. +. dlambda);
  }

type operating_point = {
  ids : float;
  d_gate : float;
  d_drain : float;
  d_source : float;
  region : [ `Cutoff | `Triode | `Saturation ];
}

type scratch = {
  mutable vg : float;
  mutable vd : float;
  mutable vs : float;
  mutable ids_out : float;
  mutable dg_out : float;
  mutable dd_out : float;
  mutable ds_out : float;
}

let scratch () =
  {
    vg = 0.;
    vd = 0.;
    vs = 0.;
    ids_out = 0.;
    dg_out = 0.;
    dd_out = 0.;
    ds_out = 0.;
  }

(* The NMOS square law in the normal frame (vds >= 0), reached by
   drain/source inversion (terminal swap) and, for PMOS, by voltage
   mirroring: I_p(vg, vd, vs) = -I_n(-vg, -vd, -vs) with vt_n = -vt0,
   the partials keeping their sign through the double negation.  All
   float state lives in locals and in the all-float [scratch] record, so
   an evaluation allocates nothing — it runs once per MOSFET per Newton
   iteration. *)
let beta m ~w ~l =
  if w <= 0. || l <= 0. then invalid_arg "Mos_model.eval: w, l must be > 0";
  m.kp *. w /. l

let eval_into m ~beta s =
  let pmos = match m.polarity with Pmos -> true | Nmos -> false in
  let vt = if pmos then -.m.vt0 else m.vt0 in
  let vg = if pmos then -.s.vg else s.vg in
  let vd = if pmos then -.s.vd else s.vd in
  let vs = if pmos then -.s.vs else s.vs in
  let lambda = m.lambda in
  (* inverted: the physical source is the D pin *)
  let forward = vd >= vs in
  let vgs = if forward then vg -. vs else vg -. vd in
  let vds = if forward then vd -. vs else vs -. vd in
  let vgst = vgs -. vt in
  let id = ref 0. and gm = ref 0. and gds = ref 0. in
  let region =
    if vgst <= 0. then `Cutoff
    else begin
      let clm = 1. +. (lambda *. vds) in
      if vds < vgst then begin
        let core = (vgst *. vds) -. (0.5 *. vds *. vds) in
        id := beta *. core *. clm;
        gm := beta *. vds *. clm;
        gds := beta *. (((vgst -. vds) *. clm) +. (core *. lambda));
        `Triode
      end
      else begin
        let core = 0.5 *. vgst *. vgst in
        id := beta *. core *. clm;
        gm := beta *. vgst *. clm;
        gds := beta *. core *. lambda;
        `Saturation
      end
    end
  in
  let id = !id and gm = !gm and gds = !gds in
  (* current from pin D to pin S, partials by the chain rule *)
  let ids_n = if forward then id else -.id in
  s.ids_out <- (if pmos then -.ids_n else ids_n);
  if forward then begin
    s.dg_out <- gm;
    s.dd_out <- gds;
    s.ds_out <- -.gm -. gds
  end
  else begin
    s.dg_out <- -.gm;
    s.dd_out <- gm +. gds;
    s.ds_out <- -.gds
  end;
  region

let eval m ~w ~l ~vg ~vd ~vs =
  let s = { (scratch ()) with vg; vd; vs } in
  let region = eval_into m ~beta:(beta m ~w ~l) s in
  {
    ids = s.ids_out;
    d_gate = s.dg_out;
    d_drain = s.dd_out;
    d_source = s.ds_out;
    region;
  }
