(* Stratified, seeded fault samples.

   A stratum is a named group of dictionary faults with a quota; the
   sample draws exactly [quota] faults from each stratum without
   replacement, so every kind named by a stratum is represented however
   the seed falls.  The draw is a pure function of the seed. *)

type stratum = {
  label : string;
  members : Faults.Dictionary.entry list;
  quota : int;
}

let rng_of_seed ~salt seed = Numerics.Rng.of_key ~seed:(Int64.of_int seed) ~key:salt

let index rng n = Int.min (n - 1) (int_of_float (Numerics.Rng.float rng *. float_of_int n))

(* Partial Fisher-Yates over the member array: [k] distinct picks. *)
let pick rng k members =
  let a = Array.of_list members in
  let n = Array.length a in
  if k > n then invalid_arg "Sampler.pick: quota exceeds stratum size";
  for i = 0 to k - 1 do
    let j = i + index rng (n - i) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 k)

let draw rng strata = List.concat_map (fun s -> pick rng s.quota s.members) strata

let kind_label (e : Faults.Dictionary.entry) =
  Faults.Fault.kind_name e.Faults.Dictionary.fault

(* One stratum per [label], in order of first appearance, each with
   [quota label size] draws. *)
let strata ~label ~quota dict =
  let entries = Faults.Dictionary.entries dict in
  let labels =
    List.fold_left
      (fun acc e -> if List.mem (label e) acc then acc else label e :: acc)
      [] entries
    |> List.rev
  in
  List.map
    (fun l ->
      let members = List.filter (fun e -> label e = l) entries in
      { label = l; members; quota = quota l (List.length members) })
    labels

(* One stratum per fault kind, each with [share] of its members
   (rounded, at least one). *)
let by_kind ~share dict =
  strata ~label:kind_label
    ~quota:(fun _ n ->
      Int.max 1 (Int.min n (int_of_float (Float.round (share *. float_of_int n)))))
    dict

(* Redraw until a sample passes [accept] and its summed reference cost
   lies within [tol] (a share) of [target]; after [max_draws] the
   closest accepted draw wins.  Equal-cost samples keep timings of
   different seeds comparable while the fault set still changes with
   the seed. *)
let balanced ?(max_draws = 100_000) ?(accept = fun _ -> true) ~cost ~target
    ~tol rng strata =
  let total s = List.fold_left (fun acc e -> acc +. cost e) 0. s in
  let rec go n best =
    if n = max_draws then best
    else
      let s = draw rng strata in
      if not (accept s) then go (n + 1) best
      else
        let miss = Float.abs (total s -. target) in
        let best =
          match best with Some (m, _) when m <= miss -> best | _ -> Some (miss, s)
        in
        if miss <= tol *. target then best else go (n + 1) best
  in
  match go 0 None with
  | Some (_, s) -> s
  | None -> invalid_arg "Sampler.balanced: no draw passes [accept]"

(* The sample as a sub-dictionary, in the full dictionary's order. *)
let restrict dict sample =
  let ids = List.map (fun (e : Faults.Dictionary.entry) -> e.fault_id) sample in
  Faults.Dictionary.filter dict (fun e -> List.mem e.Faults.Dictionary.fault_id ids)

let ids dict = List.map (fun (e : Faults.Dictionary.entry) -> e.fault_id) (Faults.Dictionary.entries dict)
