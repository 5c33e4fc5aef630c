(* The benchmark's own spans: one per layer call it makes in a traced
   run, each with its parent and the workload id.  Kept in memory and
   written out once, when the run ends.  Recorded from the main thread
   only: the parent is the innermost open span. *)

type span = {
  id : int;
  parent : int;  (** 0 at the root *)
  name : string;
  workload : string;
  start : float;
  stop : float;
}

let on = ref false
let workload = ref ""
let recorded : span list ref = ref []
let stack = ref [ 0 ]
let next = ref 1

let start ~workload:w =
  on := true;
  workload := w

let timed name f =
  if not !on then f ()
  else begin
    let id = !next and parent = List.hd !stack in
    incr next;
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      recorded :=
        { id; parent; name; workload = !workload; start = t0; stop = Unix.gettimeofday () }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"workload\": %S, \"start\": %.6f, \"ms\": %.3f}\n"
        s.id s.parent s.name s.workload s.start
        ((s.stop -. s.start) *. 1000.))
    (List.rev !recorded);
  close_out oc
