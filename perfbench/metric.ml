(* Metric records and the one-line JSON result the benchmark ends with. *)

type t = { name : string; value : float; unit_ : string }

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all is_name_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

let make name value unit_ =
  if not (valid_name name) then invalid_arg ("Metric.make: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Metric.make: bad unit " ^ unit_);
  { name; value; unit_ }

(* Full precision, and never a token JSON cannot carry. *)
let json_number x =
  if not (Float.is_finite x) then invalid_arg "Metric.json_number: not finite";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
