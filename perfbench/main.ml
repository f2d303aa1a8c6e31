(* The repository's benchmark program: three workloads that drive the
   libraries in process, through their public functions only, and print
   one JSON result line.  See README.md in this directory for why each
   workload exists and which layer each metric belongs to.

     main.exe --workload solve_paper|serve_file|caching_drift
              --seed N --seconds S --trace 0|1

   [--trace 0] prints the end-to-end metrics, measured with tracing
   off; [--trace 1] first runs the same untraced blocks, then one more
   block with spans, the telemetry registry and traced store wrappers on,
   and prints the per-layer split. *)

let now = Telemetry.Clock.now

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Informational lines go to stdout before the result; the result must
   stay the last line. *)
let note fmt = Printf.printf (fmt ^^ "\n%!")

let print_result ~correct ~attempted ~failed metrics =
  let json_float x =
    if Float.is_finite x then Printf.sprintf "%.17g" x
    else failwith "non-finite metric"
  in
  let ms =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float value) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    correct attempted failed (String.concat ", " ms)

(* A percentile obeys the percentile rule: printed with its sample
   count, and withheld when fewer than ten samples lie beyond it. *)
let pct_note name p xs =
  match Benchlib.percentile p xs with
  | Some r ->
    note "%s = %.4f ms (p%g of %d samples, %d beyond)" name r.Benchlib.value
      (p *. 100.0) r.Benchlib.samples r.Benchlib.beyond;
    Some r.Benchlib.value
  | None ->
    note "%s withheld: %d samples leave fewer than 10 beyond p%g" name
      (Array.length xs) (p *. 100.0);
    None

(* The end-to-end metrics every workload prints (run.py adds
   [peak_rss_mb]).  An operation is a solve, an event or an epoch;
   [op_ms] is the median time of one, which serve_file and caching_drift
   take over many operations under the percentile rule. *)
let end_to_end ~setup ~ops_per_s ~op_ms =
  [ m "setup_s" "s" setup; m "ops_per_s" "1/s" ops_per_s; m "op_ms" "ms" op_ms ]

let median_op_ms lat =
  match pct_note "op_ms" 0.5 lat with
  | Some v -> v
  | None -> failwith "too few operations for a median under the rule"

let median_of f blocks = Benchlib.median (Array.of_list (List.map f blocks))

(* ------------------------------------------------------------------ *)
(* Run shape                                                           *)

(* A run does a fixed amount of work for its [seconds]: one cycle of
   [cycle] blocks per 10 s asked for (at least one), each cycle sized to
   take about 10 s on a 2-core host.  Running until a deadline instead
   would make the sample counts and the peak resident set depend on how
   fast the host happened to be. *)
let run_blocks ~seconds ~cycle block =
  let cycles = max 1 (int_of_float (Float.round (seconds /. 10.0))) in
  for i = 0 to (cycles * cycle) - 1 do
    block i
  done

(* serve_file and caching_drift cycle through [pool] instance seeds,
   each with a recorded correct output in [Expected]; the run's seed
   picks the first.  Their metrics differ up to 25% between single
   instances, so every run covers all of them: runs under different
   seeds then do equal work and differ only by noise. *)
let pool = 10

let instance_seed seed i = 1 + ((((seed + i) mod pool) + pool) mod pool)

(* [f] of the untraced blocks that ran the traced block's instance. *)
let same_instance f blocks =
  Array.of_list (List.map f (List.filteri (fun i _ -> i mod pool = 0) blocks))

type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable misses : string list;
}

let gate () = { attempted = 0; failed = 0; misses = [] }

let miss g what =
  g.failed <- g.failed + 1;
  if List.length g.misses < 10 then g.misses <- what :: g.misses

let attempt g ok what =
  g.attempted <- g.attempted + 1;
  if not ok then miss g what

(* Compare one block's output with the recorded one for its seed. *)
let check_recorded g ~what ~seed table observed =
  match List.assoc_opt seed table with
  | Some expected when expected = observed -> ()
  | Some expected ->
    miss g
      (Printf.sprintf "%s: seed %d expected %s, observed %s" what seed
         expected observed)
  | None ->
    miss g
      (Printf.sprintf "%s: nothing recorded for seed %d, observed %s" what
         seed observed)

let finish g metrics =
  List.iter (fun s -> note "correctness miss: %s" s) (List.rev g.misses);
  let correct = g.failed = 0 in
  print_result ~correct ~attempted:(max 1 g.attempted) ~failed:g.failed
    metrics;
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let span = Telemetry.Trace.with_span

let traced f =
  Telemetry.Metrics.reset ();
  Telemetry.Trace.reset ();
  Telemetry.Metrics.enable ();
  Telemetry.Trace.enable ();
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  Telemetry.Trace.disable ();
  Telemetry.Metrics.disable ();
  let registry = Benchlib.parse (Telemetry.Metrics.render ()) in
  (r, wall, registry, Telemetry.Trace.spans ())

let ratio a b = if b = 0.0 then 0.0 else a /. b

let reg registry name = Benchlib.total registry name

(* The per-layer metrics every workload prints, from one traced block of
   [ops] operations that took [wall] seconds ([untraced]: the same work
   untraced).  Every source sees a layer wherever it runs: the spans
   (the benchmark's around its public calls, the libraries' own, and the
   store wrapper's), the registry, and the [stores]' counts.  A layer a
   workload never enters reads 0.  Each [<layer>.share] is the layer's
   self time over [wall]. *)
let per_layer ~ops ~wall ~untraced ~spans ~registry ?(stores = [])
    ?(rounds = 0.0) ?(probe_walks = 0) () =
  let per x = x /. float_of_int ops in
  let per_reg name = per (reg registry name) in
  let per_store f =
    per (float_of_int (List.fold_left (fun acc c -> acc + f c) 0 stores))
  in
  let self = Benchlib.self_times spans in
  List.iter
    (fun (name, t) ->
      note "span %s: self %.4f s, %.2f%% of the traced %.4f s" name t
        (100.0 *. t /. wall) wall)
    self;
  let covered =
    List.fold_left
      (fun acc (i : Telemetry.Trace.info) ->
        if i.parent = None then acc +. Benchlib.duration i else acc)
      0.0 spans
  in
  note "trace: %d spans, traced %.4f s against an untraced median of %.4f s"
    (List.length spans) wall untraced;
  let lp_s = reg registry "sdnplace_ilp_lp_seconds_sum" in
  let pivots = reg registry "sdnplace_simplex_pivots_total" in
  let hits = reg registry "sdnplace_ilp_warm_start_hits_total" in
  let misses = reg registry "sdnplace_ilp_warm_start_misses_total" in
  let count name v = m name "count" v in
  List.map
    (fun l -> m (l ^ ".share") "ratio" (Benchlib.layer_self self l /. wall))
    Benchlib.layers
  @ [
      m "ilp.lp_share" "ratio" (lp_s /. wall);
      count "ilp.lp_calls_per_op" (per_reg "sdnplace_ilp_lp_calls_total");
      count "ilp.nodes_per_op" (per_reg "sdnplace_ilp_nodes_total");
      count "ilp.cuts_per_op" (per_reg "sdnplace_ilp_cuts_total");
      m "ilp.warm_start_hit_rate" "ratio" (ratio hits (hits +. misses));
      count "simplex.pivots_per_op" (per pivots);
      count "simplex.refactorizations_per_op"
        (per_reg "sdnplace_simplex_refactorizations_total");
      m "simplex.ms_per_pivot" "ms" (1000.0 *. ratio lp_s pivots);
      count "update.waves_per_op" (per_reg "sdnplace_update_waves_total");
      count "switch.attempts_per_op" (per_reg "sdnplace_switch_attempts_total");
      count "journal.fsyncs_per_op" (per_store Benchlib.barriers);
      count "journal.appends_per_op" (per_store (fun c -> c.Benchlib.appends));
      m "journal.bytes_per_op" "B"
        (per_store (fun c -> c.Benchlib.append_bytes + c.snapshot_bytes));
      count "journal.snapshots_per_op" (per_store (fun c -> c.snapshots));
      count "serve.rounds_per_op" (per rounds);
      count "traffic.resolves_per_op"
        (per_reg "sdnplace_traffic_resolves_total");
      count "traffic.evictions_per_op"
        (per_reg "sdnplace_traffic_evictions_total");
      count "traffic.delegations_per_op"
        (per_reg "sdnplace_traffic_delegations_total");
      count "traffic.probe_walks_per_op" (per (float_of_int probe_walks));
      m "trace.ms_per_op" "ms" (1000.0 *. per wall);
      m "trace.slowdown" "ratio" (wall /. untraced);
      m "trace.coverage" "ratio" (covered /. wall);
    ]

(* ------------------------------------------------------------------ *)
(* solve_paper                                                         *)

(* The paper's headline grid point, one fixed instance.  Solve time and
   memory differ up to 2.7x between instance seeds of this family
   (7.7-21.2 s, 650-1220 MB on a 2-core host), so a seed-varied
   instance would measure the draw rather than the code; the run's seed
   drives the verifier's sampled packets instead. *)
let paper_family =
  {
    Workload.default with
    Workload.k = 32;
    rules = 110;
    paths = 2048;
    capacity = 200;
    seed = 1;
  }

(* Sys.time-charged, so far above the solve time: the outcome never
   depends on the clock. *)
let ilp_config =
  { Ilp.Solver.default_config with Ilp.Solver.time_limit = 3600.0 }

let solve_options = Placement.Solve.options ~ilp_config ~jobs:1 ()

(* Timed builds per run, after one untimed warm-up build that grows the
   heap to the size every later build reuses. *)
let setups = 8

let solve_paper ~seed ~seconds ~trace =
  let g = gate () in
  let fam = paper_family in
  let build_s = Array.make setups 0.0 in
  let inst = ref (Workload.build fam) in
  for i = 0 to setups - 1 do
    let t0 = now () in
    inst := Workload.build fam;
    build_s.(i) <- now () -. t0
  done;
  let inst = !inst in
  let verify_s = ref [] in
  let check_solution ~objective (layout : Placement.Layout.t) sol ok =
    let t0 = now () in
    let violations = Placement.Verify.check (Prng.create seed) layout sol in
    verify_s := (now () -. t0) :: !verify_s;
    attempt g
      (ok && violations = [])
      (Printf.sprintf "solve not optimal or %d verify violations"
         (List.length violations));
    check_recorded g ~what:"solve_paper objective" ~seed:fam.Workload.seed
      Expected.solve_paper
      (Printf.sprintf "%.0f" objective)
  in
  let solves = ref [] in
  run_blocks ~seconds ~cycle:1 (fun _ ->
      Gc.full_major ();
      let t0 = now () in
      let r = Placement.Solve.run ~options:solve_options inst in
      solves := (now () -. t0) :: !solves;
      match r.Placement.Solve.solution with
      | Some sol ->
        check_solution ~objective:sol.Placement.Solution.objective
          r.Placement.Solve.layout sol
          (r.Placement.Solve.status = `Optimal)
      | None -> attempt g false "no solution");
  let solves = Array.of_list !solves in
  note "solve_paper: %d solves, build %s s" (Array.length solves)
    (String.concat " "
       (Array.to_list (Array.map (Printf.sprintf "%.3f") build_s)));
  if not trace then
    finish g
      (end_to_end ~setup:(Benchlib.median build_s)
         ~ops_per_s:
           (float_of_int (Array.length solves)
           /. Array.fold_left ( +. ) 0.0 solves)
         ~op_ms:(1000.0 *. Benchlib.median solves))
  else begin
    (* The same pipeline as Solve.run at default options, one public
       call per layer, each under its own span. *)
    let pipeline () =
      let inst =
        span "acl.redundancy" (fun () ->
            Placement.Instance.map_policies inst (fun _ q ->
                fst (Acl.Redundancy.remove q)))
      in
      let layout =
        span "placement.layout" (fun () -> Placement.Layout.build inst)
      in
      let greedy =
        span "placement.greedy" (fun () ->
            Placement.Baseline.greedy_assignment layout)
      in
      let model, _ =
        span "placement.encode" (fun () -> Placement.Encode.to_model layout)
      in
      let red =
        match span "ilp.presolve" (fun () -> Ilp.Presolve.reduce model) with
        | Ilp.Presolve.Reduced red -> red
        | Ilp.Presolve.Infeasible ->
          failwith "presolve proved the instance infeasible"
      in
      let outcome, _ =
        span "ilp.search" (fun () ->
            Ilp.Solver.solve
              ~config:{ ilp_config with Ilp.Solver.presolve = false }
              ?warm_start:(Option.map (Ilp.Presolve.project red) greedy)
              red.Ilp.Presolve.reduced)
      in
      span "placement.decode" (fun () ->
          match outcome with
          | Ilp.Solver.Optimal s ->
            let values = Ilp.Presolve.restore red s.Ilp.Solver.values in
            let objective =
              s.Ilp.Solver.objective +. red.Ilp.Presolve.obj_offset
            in
            let sol =
              Placement.Solution.of_assignment layout values ~objective
            in
            check_solution ~objective layout sol true
          | _ -> attempt g false "traced search not optimal");
      red
    in
    (* The traced pipeline verifies inside decode, so its untraced
       counterpart is a solve plus a verify. *)
    let untraced =
      Benchlib.median solves +. Benchlib.median (Array.of_list !verify_s)
    in
    Gc.full_major ();
    let red, wall, registry, spans = traced pipeline in
    let vars = Ilp.Model.num_vars red.Ilp.Presolve.reduced in
    let rows = Ilp.Model.num_rows red.Ilp.Presolve.reduced in
    note "presolve: %d of %d variables and %d of %d rows left" vars
      red.Ilp.Presolve.orig_vars rows
      (rows + red.Ilp.Presolve.rows_dropped);
    finish g (per_layer ~ops:1 ~wall ~untraced ~spans ~registry ())
  end

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)

(* Memory stores behind the counting wrapper: the benchmark writes
   nothing outside its checkout, and a disk's fsync latency drifts from
   minute to minute (README.md). *)
let make_store ~timed counts =
  Benchlib.wrap ~traced:timed counts (fst (Journal.Store.memory ()))

(* ------------------------------------------------------------------ *)
(* serve_file                                                          *)

let serve_requests = 10_000

(* Throughput is a median over windows of this many requests: a block
   median alone has too few samples on a noisy host. *)
let window = 500

let burst = 4

let tenants = 8

let loadgen seed =
  Serve.Loadgen.make
    ~weights:{ Serve.Loadgen.default_weights with Serve.Loadgen.chaos = 0 }
    ~tenants ~flood_bias:0 ~seed ()

type serve_block = {
  latencies : float array;  (** submit to outcome reply, ms *)
  timed_s : float;  (** closed-loop phase incl. the final drain *)
  window_rates : float list;  (** resolved events per second per window *)
  setup : float;  (** total of the block's [boots] *)
  rounds : float array;  (** scheduling rounds each event waited *)
  mix : (string, int) Hashtbl.t array;  (** outcome kinds per quarter *)
  signature : string;
  intake : Benchlib.counts;
  journal : Benchlib.counts;
  submit_calls : int;
  tick_calls : int;
}

(* Set-up: boot the daemon on fresh stores and connect every tenant, so
   the timed phase starts from a populated network. *)
let boot ~seed ~timed =
  let intake = Benchlib.counts () and journal = Benchlib.counts () in
  let stores _ =
    {
      Serve.Shard.journal = make_store ~timed journal;
      intake = make_store ~timed intake;
    }
  in
  let config = { Serve.Daemon.default_config with Serve.Daemon.seed } in
  let d = Serve.Daemon.create ~config ~stores () in
  for tenant = 0 to tenants - 1 do
    let op = Serve.Wire.Connect { rules = 3 } in
    ignore (Serve.Daemon.submit d (Serve.Wire.Submit { tenant; op }))
  done;
  while Serve.Daemon.pending d > 0 do
    ignore (Serve.Daemon.tick d)
  done;
  Benchlib.reset intake;
  Benchlib.reset journal;
  (d, intake, journal)

(* Boots per block.  One boot takes about a millisecond, too little to
   time steadily, so a block's set-up is the total of all its boots.
   Only the last daemon serves the block. *)
let boots = 20

let serve_block g ~seed ~timed =
  let setup = ref 0.0 in
  let booted = ref None in
  for _ = 1 to boots do
    Option.iter (fun (d, _, _) -> Serve.Daemon.shutdown d) !booted;
    let t0 = now () in
    booted := Some (boot ~seed ~timed);
    setup := !setup +. (now () -. t0)
  done;
  let d, intake, journal = Option.get !booted in
  (* The traced registry and spans cover the timed phase only. *)
  if timed then begin
    Telemetry.Metrics.reset ();
    Telemetry.Trace.reset ()
  end;
  let submitted = Hashtbl.create 1024 in
  (* Float arrays are unboxed: the per-event samples add no garbage. *)
  let lat = Array.make serve_requests 0.0 in
  let rounds = Array.make serve_requests 0.0 in
  let events = ref 0 and round = ref 0 in
  let mix = Array.init 4 (fun _ -> Hashtbl.create 8) in
  let acked = ref [] in
  let on_reply r =
    match r with
    | Serve.Wire.Accepted { tenant; ticket } ->
      acked := (tenant, ticket) :: !acked
    | Serve.Wire.Applied { tenant; ticket; _ }
    | Serve.Wire.Quarantined_ticket { tenant; ticket; _ } ->
      let kind, ok =
        match r with
        | Serve.Wire.Applied { rung; verified; _ } ->
          (Runtime.Report.rung_name rung, verified)
        | _ -> ("quarantined_ticket", true)
      in
      let t0, idx, r0 = Hashtbl.find submitted (tenant, ticket) in
      lat.(!events) <- (now () -. t0) *. 1000.0;
      rounds.(!events) <- float_of_int (!round - r0);
      incr events;
      let q = mix.(idx * 4 / serve_requests) in
      Hashtbl.replace q kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt q kind));
      attempt g ok "applied event failed verification"
    | r -> attempt g false ("request refused: " ^ Serve.Wire.describe_reply r)
  in
  let submit_calls = ref 0 and tick_calls = ref 0 in
  let gen = loadgen seed in
  let t1 = now () in
  let windows = ref [] and mark = ref (t1, 0) in
  let idx = ref 0 in
  while !idx < serve_requests do
    for _ = 1 to min burst (serve_requests - !idx) do
      let t0 = now () in
      incr submit_calls;
      let req = Serve.Loadgen.next gen in
      let replies = span "serve.submit" (fun () -> Serve.Daemon.submit d req) in
      List.iter
        (fun r ->
          (match r with
          | Serve.Wire.Accepted { tenant; ticket } ->
            Hashtbl.replace submitted (tenant, ticket) (t0, !idx, !round)
          | _ -> ());
          on_reply r)
        replies;
      incr idx
    done;
    incr tick_calls;
    let replies = span "serve.tick" (fun () -> Serve.Daemon.tick d) in
    incr round;
    List.iter on_reply replies;
    if !idx mod window = 0 then begin
      let t, n = !mark and t' = now () in
      windows := (float_of_int (!events - n) /. (t' -. t)) :: !windows;
      mark := (t', !events)
    end
  done;
  List.iter
    (function Serve.Wire.Drained _ -> () | r -> on_reply r)
    (span "serve.drain" (fun () -> Serve.Daemon.drain d));
  let timed_s = now () -. t1 in
  let lost =
    List.filter
      (fun (tenant, ticket) -> not (Serve.Daemon.resolved d ~tenant ~ticket))
      !acked
  in
  if lost <> [] then
    attempt g false
      (Printf.sprintf "%d acked tickets never resolved" (List.length lost));
  let signature = Serve.Daemon.signature d in
  Serve.Daemon.shutdown d;
  {
    latencies = Array.sub lat 0 !events;
    timed_s;
    window_rates = !windows;
    setup = !setup;
    rounds = Array.sub rounds 0 !events;
    mix;
    signature;
    intake;
    journal;
    submit_calls = !submit_calls;
    tick_calls = !tick_calls;
  }

(* Outcome mix per quarter of the requests, summed over blocks: a load
   that degenerates over time (as the chaos mix does) shows here. *)
let print_mix blocks =
  for q = 0 to 3 do
    let tbl = Hashtbl.create 8 in
    let add k n =
      let n0 = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (n0 + n)
    in
    List.iter (fun b -> Hashtbl.iter add b.mix.(q)) blocks;
    let total = Hashtbl.fold (fun _ n acc -> acc + n) tbl 0 in
    let share (k, n) =
      Printf.sprintf "%s %.1f%%" k
        (100.0 *. float_of_int n /. float_of_int (max 1 total))
    in
    let kinds =
      List.sort compare (Hashtbl.fold (fun k n l -> (k, n) :: l) tbl [])
    in
    note "outcome mix, quarter %d of the requests (%d events): %s" (q + 1)
      total
      (String.concat ", " (List.map share kinds))
  done

let barriers b = Benchlib.barriers b.intake + Benchlib.barriers b.journal

let serve_file ~seed ~seconds ~trace =
  let g = gate () in
  let blocks = ref [] in
  run_blocks ~seconds ~cycle:pool (fun i ->
      (* Each block starts from a compacted heap, so the peak resident
         set does not depend on the order the seed gives the blocks. *)
      Gc.compact ();
      let seed = instance_seed seed i in
      let b = serve_block g ~seed ~timed:false in
      check_recorded g ~what:"serve_file signature" ~seed Expected.serve_file
        b.signature;
      blocks := b :: !blocks);
  let blocks = List.rev !blocks in
  note "serve_file: %d blocks of %d requests from instance seed %d on, \
        block seconds %s"
    (List.length blocks) serve_requests (instance_seed seed 0)
    (String.concat " "
       (List.map (fun b -> Printf.sprintf "%.3f" b.timed_s) blocks));
  print_mix blocks;
  if not trace then begin
    let lat = Array.concat (List.map (fun b -> b.latencies) blocks) in
    let rates = List.concat_map (fun b -> b.window_rates) blocks in
    let fsyncs = List.fold_left (fun acc b -> acc + barriers b) 0 blocks in
    ignore (pct_note "event_p99_ms" 0.99 lat);
    note "fsyncs per event: %.4f"
      (float_of_int fsyncs /. float_of_int (Array.length lat));
    finish g
      (end_to_end
         ~setup:(median_of (fun b -> b.setup) blocks)
         ~ops_per_s:(Benchlib.median (Array.of_list rates))
         ~op_ms:(median_op_ms lat))
  end
  else begin
    Gc.full_major ();
    let seed = instance_seed seed 0 in
    let b, _, registry, spans =
      traced (fun () -> serve_block g ~seed ~timed:true)
    in
    check_recorded g ~what:"serve_file traced signature" ~seed
      Expected.serve_file b.signature;
    let events = Array.length b.latencies in
    let i = b.intake and j = b.journal in
    note "intake fsyncs per event %.4f, WAL fsyncs per event %.4f; %d \
          submits and %d ticks"
      (float_of_int (Benchlib.barriers i) /. float_of_int events)
      (float_of_int (Benchlib.barriers j) /. float_of_int events)
      b.submit_calls b.tick_calls;
    let untraced =
      Benchlib.median (same_instance (fun b -> b.timed_s) blocks)
    in
    finish g
      (per_layer ~ops:events ~wall:b.timed_s ~untraced ~spans ~registry
         ~stores:[ i; j ]
         ~rounds:(Array.fold_left ( +. ) 0.0 b.rounds)
         ())
  end

(* ------------------------------------------------------------------ *)
(* caching_drift                                                       *)

let caching_epochs = 300

let caching_config seed =
  {
    Traffic.Controller.default with
    Traffic.Controller.family =
      {
        Workload.default with
        Workload.k = 8;
        num_policies = 16;
        rules = 20;
        paths = 64;
        capacity = 100;
        seed;
      };
    epochs = caching_epochs;
    packets = 16_384;
    alpha = 1.3;
    hw_frac = 0.3;
    adaptive = true;
  }

type caching_block = {
  c_setup : float;
  step_s : float;  (** wall time of the epoch loop *)
  epoch_s : float array;  (** every epoch's time, in order *)
  resolved : bool array;  (** which epochs re-solved *)
  hits : int;
  misses : int;
  digest : string;
  c_journal : Benchlib.counts;
  c_resolves : int;
}

(* Controllers created per block, for a steadier set-up median; only
   the last one runs the epochs. *)
let creates = 3

let caching_block g ~seed ~timed =
  let cfg = caching_config seed in
  let setup = Array.make creates 0.0 in
  let created = ref None in
  for i = 0 to creates - 1 do
    created := None;
    let journal = Benchlib.counts () in
    let store = make_store ~timed journal in
    let t0 = now () in
    let c =
      span "traffic.create" (fun () -> Traffic.Controller.create ~store cfg)
    in
    setup.(i) <- now () -. t0;
    created := Some (c, journal)
  done;
  let c, journal = Option.get !created in
  (* The store counts and the traced registry and spans cover the
     epochs only, not the initial solve and snapshot. *)
  Benchlib.reset journal;
  if timed then begin
    Telemetry.Metrics.reset ();
    Telemetry.Trace.reset ()
  end;
  (* Unboxed per-epoch samples: what a block keeps stays small, so the
     peak resident set does not grow with the number of blocks. *)
  let epoch_s = Array.make caching_epochs 0.0 in
  let resolved = Array.make caching_epochs false in
  let n = ref 0 and hits = ref 0 and misses = ref 0 in
  let lines = Buffer.create 65536 in
  let rec loop () =
    let t0 = now () in
    match span "traffic.step" (fun () -> Traffic.Controller.step c) with
    | None -> ()
    | Some e ->
      let dt = now () -. t0 in
      epoch_s.(!n) <- dt;
      resolved.(!n) <- e.e_resolved <> [];
      incr n;
      hits := !hits + e.e_hits;
      misses := !misses + e.e_misses;
      Buffer.add_string lines (Traffic.Controller.line e);
      Buffer.add_char lines '\n';
      attempt g (e.e_violations = 0)
        (Printf.sprintf "epoch %d: %d differential violations" e.e_index
           e.e_violations);
      loop ()
  in
  let t0 = now () in
  loop ();
  let step_s = now () -. t0 in
  {
    c_setup = Benchlib.median setup;
    step_s;
    epoch_s;
    resolved;
    hits = !hits;
    misses = !misses;
    digest = Digest.to_hex (Digest.string (Buffer.contents lines));
    c_journal = journal;
    c_resolves = Traffic.Controller.resolves c;
  }

(* Times in ms of the block's epochs that did ([resolve]) or did not
   re-solve. *)
let epoch_ms ~resolve b =
  Array.to_list b.epoch_s
  |> List.filteri (fun i _ -> b.resolved.(i) = resolve)
  |> List.map (fun dt -> dt *. 1000.0)
  |> Array.of_list

(* Epochs per second over consecutive windows of 25 epochs, for the same
   reason as serve_file's request windows. *)
let epoch_windows b =
  List.init (caching_epochs / 25) (fun w ->
      25.0 /. Array.fold_left ( +. ) 0.0 (Array.sub b.epoch_s (w * 25) 25))

(* Probe packets per epoch: one per traffic share, at most [probes] per
   flow (Controller's walk), each walked through both table sets. *)
let probe_walks (cfg : Traffic.Controller.config) =
  let inst = Workload.build cfg.family in
  let zcfg =
    {
      Traffic.Zipf.flows =
        List.length (Routing.Table.paths inst.Placement.Instance.routing);
      packets = cfg.packets;
      alpha = cfg.alpha;
      drift = cfg.drift;
      seed = cfg.family.Workload.seed;
    }
  in
  List.fold_left
    (fun acc (e : Traffic.Zipf.epoch) ->
      Array.fold_left (fun acc c -> acc + min c cfg.probes) acc e.counts)
    0
    (Traffic.Zipf.epochs zcfg cfg.epochs)

let caching_drift ~seed ~seconds ~trace =
  let g = gate () in
  let blocks = ref [] in
  run_blocks ~seconds ~cycle:pool (fun i ->
      Gc.compact ();
      let seed = instance_seed seed i in
      let b = caching_block g ~seed ~timed:false in
      check_recorded g ~what:"caching_drift report digest" ~seed
        Expected.caching_drift b.digest;
      blocks := b :: !blocks);
  let blocks = List.rev !blocks in
  let show f = String.concat " " (List.map f blocks) in
  note "caching_drift: %d blocks of %d epochs from instance seed %d on, \
        re-solves %s, epoch seconds %s"
    (List.length blocks) caching_epochs (instance_seed seed 0)
    (show (fun b -> string_of_int b.c_resolves))
    (show (fun b -> Printf.sprintf "%.3f" b.step_s));
  if not trace then begin
    let cat f = Array.concat (List.map f blocks) in
    let hits = List.fold_left (fun acc b -> acc + b.hits) 0 blocks in
    let misses = List.fold_left (fun acc b -> acc + b.misses) 0 blocks in
    ignore (pct_note "plain_epoch_p50_ms" 0.5 (cat (epoch_ms ~resolve:false)));
    ignore (pct_note "resolve_epoch_p50_ms" 0.5 (cat (epoch_ms ~resolve:true)));
    note "hit rate: %.6f" (float_of_int hits /. float_of_int (hits + misses));
    finish g
      (end_to_end
         ~setup:(median_of (fun b -> b.c_setup) blocks)
         ~ops_per_s:
           (Benchlib.median
              (Array.of_list (List.concat_map epoch_windows blocks)))
         ~op_ms:
           (median_op_ms
              (cat (fun b -> Array.map (( *. ) 1000.0) b.epoch_s))))
  end
  else begin
    Gc.full_major ();
    let seed = instance_seed seed 0 in
    let b, _, registry, spans =
      traced (fun () -> caching_block g ~seed ~timed:true)
    in
    check_recorded g ~what:"caching_drift traced digest" ~seed
      Expected.caching_drift b.digest;
    note "traced block: %d re-solves in %d epochs" b.c_resolves
      caching_epochs;
    let untraced =
      Benchlib.median (same_instance (fun b -> b.step_s) blocks)
    in
    finish g
      (per_layer ~ops:caching_epochs ~wall:b.step_s ~untraced ~spans ~registry
         ~stores:[ b.c_journal ]
         ~probe_walks:(probe_walks (caching_config seed))
         ())
  end

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME solve_paper | serve_file | caching_drift" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 end-to-end metrics (0) or the traced per-layer run (1)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  match !workload with
  | "solve_paper" -> solve_paper ~seed ~seconds ~trace
  | "serve_file" -> serve_file ~seed ~seconds ~trace
  | "caching_drift" -> caching_drift ~seed ~seconds ~trace
  | w ->
    Printf.eprintf "unknown workload %S\n" w;
    exit 2
