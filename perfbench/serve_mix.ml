(* Workload serve_mix: the daemon under a closed loop.

   An in-process Serve.Server on a socket in the scratch directory; its
   set-up starts the daemon and warms the context caches with one
   generate request per macro and backend.  Two closed-loop clients,
   each on its own connection, then send a seeded sequence of short
   requests (op, generate, compact and baseline over small rc/otac
   macros on both backends); a client sends its next request only after
   the previous reply.  This is the only workload where the serve layer
   shows: framing, admission, one domain per request, and the fork and
   absorb of the shared plan and evaluator caches around every request.
   Paper-sized iv requests are left out: one of them sets the p90 alone
   and cuts throughput to a few requests per second. *)

open Testgen
module J = Serve.Jsonl

let name = "serve_mix"

type kind = Op | Generate | Compact | Baseline

let kind_name = function
  | Op -> "op"
  | Generate -> "generate"
  | Compact -> "compact"
  | Baseline -> "baseline"

let kinds = [ Op; Generate; Compact; Baseline ]

type request = {
  kind : kind;
  macro : string;
  backend : string;
  take : int;
  delta : float;
}

let macros = [ "rc4"; "rc8"; "otac2"; "otac4" ]
let backends = [ "dense"; "sparse" ]
let takes = [ 2; 4; 8 ]
let deltas = [ 0.05; 0.1; 0.2 ]

(* One cycle: per macro and backend, four op requests and, per take, two
   generate, one compact and one baseline request — 128 requests whose
   mix of kinds and sizes is the same for every seed. *)
let cycle =
  List.concat_map
    (fun macro ->
      List.concat_map
        (fun backend ->
          let r kind take = { kind; macro; backend; take; delta = 0.1 } in
          List.init 4 (fun _ -> r Op 0)
          @ List.concat_map
              (fun take ->
                [ r Generate take; r Generate take; r Compact take; r Baseline take ])
              takes)
        backends)
    macros

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Sampler.index rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The seed orders each cycle and deals the compact requests their
   sensitivity-loss budgets from a balanced deck. *)
let sequence ~seed ~cycles =
  let rng = Sampler.rng_of_seed ~salt:name seed in
  Array.concat
    (List.init cycles (fun _ ->
         let compacts = List.length (List.filter (fun r -> r.kind = Compact) cycle) in
         let deck =
           shuffle rng
             (Array.init compacts (fun i -> List.nth deltas (i mod List.length deltas)))
         in
         let dealt = ref 0 in
         let dealt_cycle =
           List.map
             (fun r ->
               if r.kind <> Compact then r
               else begin
                 let delta = deck.(!dealt) in
                 incr dealt;
                 { r with delta }
               end)
             cycle
         in
         shuffle rng (Array.of_list dealt_cycle)))

let to_json r =
  let common =
    [
      ("op", J.Str (kind_name r.kind));
      ("macro", J.Str r.macro);
      ("backend", J.Str r.backend);
    ]
  in
  J.Obj
    (match r.kind with
    | Op -> common
    | Generate | Compact | Baseline ->
        common
        @ [ ("fast", J.Bool true); ("take", J.Num (float_of_int r.take)); ("jobs", J.Num 1.) ]
        @ if r.kind = Compact then [ ("delta", J.Num r.delta) ] else [])

(* -- reference answers, computed in-process ------------------------------ *)

(* What a correct reply carries, as one string per request key: the same
   construction the daemon uses, run on the dense backend (results are
   bit-identical across backends by contract, so a sparse reply is
   checked against it too). *)
type refs = {
  payloads : (kind * string * int * float, string) Hashtbl.t;
  runs : (string * int, Experiments.Setup.t * Engine.run) Hashtbl.t;
  compacts : (string * int * float, Experiments.Setup.t * Compactor.result) Hashtbl.t;
  mutable fault_times : float list;  (** per-fault times of the runs *)
  mutable compact_s : float;  (** summed time of the compactions *)
}

let new_refs () =
  {
    payloads = Hashtbl.create 64;
    runs = Hashtbl.create 16;
    compacts = Hashtbl.create 16;
    fault_times = [];
    compact_s = 0.;
  }

let find_macro name =
  match Macros.Registry.find name with Ok m -> m | Error e -> failwith e

let reference_run refs macro take =
  match Hashtbl.find_opt refs.runs (macro, take) with
  | Some v -> v
  | None ->
      let ctx =
        Experiments.Setup.probe ~profile:Execute.fast_profile
          ~backend:Circuit.Mna.Dense ~macro:(find_macro macro) ()
      in
      let progress, times = Common.fault_clock () in
      (* like the daemon: generate over the first [take] faults, then
         compact and score against the whole dictionary *)
      let run =
        Experiments.Runs.engine_run ~progress
          ~options:Experiments.Setup.probe_options ~executor:Engine.sequential
          (Experiments.Setup.reduced ctx ~n_faults:take)
      in
      refs.fault_times <- refs.fault_times @ times ();
      Hashtbl.replace refs.runs (macro, take) (ctx, run);
      (ctx, run)

let compact_json (c : Compactor.result) =
  J.Obj
    [
      ("tests", J.Num (float_of_int (List.length c.Compactor.compact_tests)));
      ("original", J.Num (float_of_int c.Compactor.original_test_count));
      ( "labels",
        J.List (List.map (fun ct -> J.Str ct.Compactor.ct_label) c.Compactor.compact_tests) );
    ]

let op_payload ~newton ~voltages =
  J.to_string (J.Obj [ ("newton_iterations", newton); ("voltages", voltages) ])

let reference refs r =
  let key = (r.kind, r.macro, r.take, r.delta) in
  match Hashtbl.find_opt refs.payloads key with
  | Some p -> p
  | None ->
      let p =
        match r.kind with
        | Op ->
            let nl = Macros.Macro.nominal_netlist (find_macro r.macro) in
            let sys = Circuit.Mna.build ~backend:Circuit.Mna.Dense nl in
            let report = Circuit.Dc.solve sys ~time:`Dc in
            let x = report.Circuit.Dc.solution in
            op_payload
              ~newton:(J.Num (float_of_int report.Circuit.Dc.newton_iterations))
              ~voltages:
                (J.Obj
                   (List.map
                      (fun n -> (n, J.Num (Circuit.Mna.voltage sys x n)))
                      (Circuit.Netlist.nodes nl)))
        | Generate | Compact | Baseline -> (
            let ctx, run = reference_run refs r.macro r.take in
            let verdicts = J.to_string (Serve.Protocol.verdicts_of_run run) in
            match r.kind with
            | Compact ->
                let c, dt =
                  Common.timed (fun () -> Experiments.Runs.compact_run ~delta:r.delta ctx run)
                in
                refs.compact_s <- refs.compact_s +. dt;
                Hashtbl.replace refs.compacts (r.macro, r.take, r.delta) (ctx, c);
                verdicts ^ J.to_string (compact_json c)
            | Baseline -> verdicts ^ J.to_string (J.Str (Experiments.Runs.xbase ctx run))
            | _ -> verdicts)
      in
      Hashtbl.replace refs.payloads key p;
      p

let reply_payload kind (result : J.t) =
  let field k = Option.map J.to_string (J.member k result) in
  let ( ^? ) a b = match (a, b) with Some a, Some b -> Some (a ^ b) | _ -> None in
  match kind with
  | Op -> (
      match (J.member "newton_iterations" result, J.member "voltages" result) with
      | Some newton, Some voltages -> Some (op_payload ~newton ~voltages)
      | _ -> None)
  | Generate -> field "verdicts"
  | Compact -> field "verdicts" ^? field "compact"
  | Baseline -> field "verdicts" ^? field "table"

(* A reply is good when the request was admitted, finished with status
   0, and carries exactly the reference payload. *)
let reply_ok refs r = function
  | None -> false
  | Some (reply : Serve.Client.reply) -> (
      reply.Serve.Client.status = 0
      && (not (Serve.Client.rejected reply))
      &&
      match Serve.Client.result_event reply with
      | None -> false
      | Some result -> reply_payload r.kind result = Some (reference refs r))

let digest refs seq =
  let keys =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun r -> (r.kind, r.macro, r.take, r.delta)) seq))
  in
  Check.digest
    (List.map
       (fun (kind, macro, take, delta) ->
         Printf.sprintf "%s %s %d %g %s" (kind_name kind) macro take delta
           (reference refs { kind; macro; backend = "dense"; take; delta }))
       keys)

(* -- the daemon and its clients ------------------------------------------- *)

type daemon = { server : Serve.Server.t; socket : string; setup_s : float; cold_ctx_s : float }

let connect socket =
  match Serve.Client.connect ~socket with Ok c -> c | Error e -> failwith e

(* Start a daemon and warm its context caches with one generate request
   per macro and backend; the warm-up replies build every context cold. *)
let start_daemon k =
  Common.ensure_out_dir ();
  let socket =
    Filename.concat Common.out_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k)
  in
  let t0 = Common.now () in
  let server =
    match
      Serve.Server.start
        { Serve.Server.socket; budget = 2; spool = Filename.concat Common.out_dir "spool" }
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let conn = connect socket in
  let cold =
    List.concat_map
      (fun macro ->
        List.map
          (fun backend ->
            let r = { kind = Generate; macro; backend; take = 1; delta = 0.1 } in
            let reply, dt =
              Common.timed (fun () -> Serve.Client.request conn ~req:"warm" (to_json r))
            in
            if reply.Serve.Client.status <> 0 then failwith "serve warm-up request failed";
            dt)
          backends)
      macros
  in
  Serve.Client.close conn;
  { server; socket; setup_s = Common.now () -. t0; cold_ctx_s = List.fold_left ( +. ) 0. cold }

type round = {
  wall_s : float;
  replies : (Serve.Client.reply * float) option array;
  rejected_ratio : float;
  ping_ms : float;
  d_setup_s : float;
  d_cold_ctx_s : float;
  heap_mb : float;  (** peak major heap so far, read as the round ends *)
}

(* [clients] closed-loop clients drain the shared sequence; then an idle
   daemon answers 21 pings. *)
let closed_loop ~clients d seq =
  let n = Array.length seq in
  let replies = Array.make n None in
  let next = Atomic.make 0 in
  let client () =
    let conn = connect d.socket in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let reply, dt =
          Common.timed (fun () ->
              Serve.Client.request conn ~req:(string_of_int i) (to_json seq.(i)))
        in
        replies.(i) <- Some (reply, dt);
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> Serve.Client.close conn) loop
  in
  let (), wall_s =
    Common.timed (fun () ->
        List.iter Thread.join (List.init clients (fun _ -> Thread.create client ())))
  in
  let conn = connect d.socket in
  let pings =
    List.init 21 (fun i ->
        snd
          (Common.timed (fun () ->
               Serve.Client.request conn ~req:(Printf.sprintf "p%d" i)
                 (J.Obj [ ("op", J.Str "ping") ]))))
  in
  Serve.Client.close conn;
  let st = Serve.Server.stats d.server in
  {
    wall_s;
    replies;
    rejected_ratio =
      Stats.ratio (float_of_int st.Serve.Server.st_rejected)
        (float_of_int (st.st_accepted + st.st_rejected));
    ping_ms = Common.ms (Stats.median pings);
    d_setup_s = d.setup_s;
    d_cold_ctx_s = d.cold_ctx_s;
    heap_mb = Common.heap_peak_mb ();
  }

let with_daemon k f =
  let d = Spans.timed "serve.start" (fun () -> start_daemon k) in
  Fun.protect ~finally:(fun () -> Serve.Server.stop d.server) (fun () -> f d)

let round ?(clients = 2) ?(traced = false) k seq =
  with_daemon k (fun d ->
      Spans.timed "serve.closed_loop" (fun () ->
          if traced then Common.traced (fun () -> closed_loop ~clients d seq)
          else (closed_loop ~clients d seq, [])))

let latencies ?kind seq r =
  List.concat
    (List.mapi
       (fun i x ->
         match x with
         | Some (_, dt) when kind = None || kind = Some seq.(i).kind -> [ dt ]
         | _ -> [])
       (Array.to_list r.replies))

let sum = List.fold_left ( +. ) 0.

let failures refs seq r =
  let bad = ref 0 in
  Array.iteri
    (fun i x ->
      if not (reply_ok refs seq.(i) (Option.map fst x)) then begin
        incr bad;
        if !bad <= 5 then
          Common.say "check: FAIL %s request %d (%s %s %s take %d)" name i
            (kind_name seq.(i).kind) seq.(i).macro seq.(i).backend seq.(i).take
      end)
    r.replies;
  !bad

let serve_metrics seq r =
  let m = Common.m in
  m "serve.ping_ms" r.ping_ms "ms"
  :: m "serve.req_p50_ms" (Common.ms (Stats.median (latencies seq r))) "ms"
  :: m "serve.req_p90_ms" (Common.ms (Stats.quantile 0.9 (latencies seq r))) "ms"
  :: m "serve.cold_ctx_s" r.d_cold_ctx_s "s"
  :: m "serve.rejected_ratio" r.rejected_ratio "ratio"
  :: List.map
       (fun k ->
         m
           ("serve.req_ms." ^ kind_name k)
           (Common.ms (Stats.median (latencies ~kind:k seq r)))
           "ms")
       kinds

let cycles = 2

(* The serve layer seen from a batch workload's traced run: one daemon,
   one round of a seeded single cycle. *)
let probe ~seed =
  let seq = sequence ~seed ~cycles:1 in
  let r, _ = round 0 seq in
  (serve_metrics seq r, Array.length seq, failures (new_refs ()) seq r)

let end_to_end ~seed ~seconds ~pins =
  let seq = sequence ~seed ~cycles in
  Common.say "%s: %d requests per round from 2 closed-loop clients" name
    (Array.length seq);
  let rs = Common.rounds ~seconds (fun k -> fst (round k seq)) in
  Common.say "%s: %d round(s), wall_s spread %.3f (IQR over median)" name
    (List.length rs) (Stats.iqr_share (List.map (fun r -> r.wall_s) rs));
  let setups = ref (List.map (fun r -> r.d_setup_s) rs) in
  while List.length !setups < 3 do
    setups := with_daemon (List.length !setups + 100) (fun d -> d.setup_s) :: !setups
  done;
  let refs = new_refs () in
  let failed =
    List.fold_left (fun acc r -> acc + failures refs seq r) 0 rs
    + Common.check_digest ~pins ~workload:name ~seed (digest refs seq)
  in
  let med f = Stats.median (List.map f rs) in
  let m = Common.m in
  let n = float_of_int (Array.length seq) in
  {
    Common.metrics =
      [
        m "setup_s" (Stats.median !setups) "s";
        m "wall_s" (med (fun r -> r.wall_s)) "s";
        m "generate_s" (med (fun r -> sum (latencies ~kind:Generate seq r))) "s";
        m "req_per_s" (med (fun r -> n /. r.wall_s)) "1/s";
        m "heap_peak_mb" (List.hd rs).heap_mb "MB";
      ];
    attempted = (List.length rs * Array.length seq) + 1;
    failed;
  }

(* Traced run: a two-client round untraced (base), the same round traced
   (counters), and a one-client round (parallel efficiency of request
   domains); engine, coverage and compaction figures come from the
   in-process reference runs the output check computes anyway. *)
let layers ~seed ~pins =
  let seq = sequence ~seed ~cycles in
  let base, _ = round 0 seq in
  let traced, counters = round ~traced:true 1 seq in
  let single, _ = round ~clients:1 2 seq in
  let rs = [ base; traced; single ] in
  let refs = new_refs () in
  let failed =
    List.fold_left (fun acc r -> acc + failures refs seq r) 0 rs
    + Common.check_digest ~pins ~workload:name ~seed (digest refs seq)
  in
  let pairs, sweep_s, original, compacted =
    Hashtbl.fold
      (fun _ ((ctx : Experiments.Setup.t), (c : Compactor.result)) (p, s, o, t) ->
        let tests = Common.tests_of c in
        let full = Experiments.Setup.probe ~backend:Circuit.Mna.Dense ~macro:ctx.macro () in
        let _, dt =
          Common.timed (fun () ->
              Spans.timed "coverage.evaluate" (fun () ->
                  Coverage.evaluate ~evaluators:full.evaluators full.dictionary tests))
        in
        ( p + (List.length tests * Faults.Dictionary.size full.dictionary),
          s +. dt,
          o + c.Compactor.original_test_count,
          t + List.length c.compact_tests ))
      refs.compacts (0, 0., 0, 0)
  in
  let m = Common.m in
  {
    Common.metrics =
      counters
      @ Common.fault_metrics refs.fault_times
      @ [
          m "engine.parallel_efficiency.j2" (single.wall_s /. (2. *. base.wall_s)) "ratio";
          m "engine.amdahl_serial_share"
            (base.d_setup_s /. (base.d_setup_s +. base.wall_s))
            "ratio";
          m "compactor.compact_s" refs.compact_s "s";
          m "coverage.sweep_s" sweep_s "s";
          m "coverage.pairs_per_s" (float_of_int pairs /. sweep_s) "1/s";
          m "compactor.compaction_ratio" (Stats.ratio (float_of_int original) (float_of_int compacted)) "ratio";
          m "obs.trace_overhead" ((traced.wall_s /. base.wall_s) -. 1.) "ratio";
        ]
      @ serve_metrics seq base
      @ Layers.suite ~seed;
    attempted = (3 * Array.length seq) + 1;
    failed;
  }
