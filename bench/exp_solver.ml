(* Experiment LP1: the dense reference tableau vs the sparse revised
   simplex, point by point over the scalability sweeps plus a
   paper-scale axis the dense engine cannot reach.  Every point is a
   differential check (both engines must agree on the verdict and, when
   both prove optimality, on the objective); wall-clock and LP-time
   ratios feed two geometric means; everything is also dumped as
   BENCH_solver.json for machine consumption.  Timings are the best of
   [reps] runs per engine, and the LP-seconds attribution (telemetry
   histogram delta) separates solver time from the shared pipeline
   overhead that end-to-end walls include.  In smoke mode the experiment
   is the CI perf canary: it fails the run when the sparse engine's LP
   time is slower than the dense one's on the smoke set or when any
   differential check trips. *)

type run = {
  r_status : Placement.Encode.status;
  r_objective : float option;
  r_wall : float;
  r_lp_s : float;
  r_lp_iters : int;
  r_warm_hits : int;
  r_warm_misses : int;
}

(* Handles onto series registered by the engines; registration is
   idempotent by (name, labels), so these are lookups. *)
let c_iters = Telemetry.Metrics.counter "sdnplace_simplex_iterations_total"

let c_hits = Telemetry.Metrics.counter "sdnplace_ilp_warm_start_hits_total"

let c_misses = Telemetry.Metrics.counter "sdnplace_ilp_warm_start_misses_total"

let h_lp = Telemetry.Metrics.histogram "sdnplace_ilp_lp_seconds"

let run_engine_once ~lp_engine ~time_limit inst =
  let i0 = Telemetry.Metrics.counter_value c_iters in
  let h0 = Telemetry.Metrics.counter_value c_hits in
  let m0 = Telemetry.Metrics.counter_value c_misses in
  let s0 = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum in
  let report, wall =
    Harness.wall (fun () ->
        Placement.Solve.run
          ~options:(Harness.solve_options ~time_limit ~lp_engine ())
          inst)
  in
  {
    r_status = report.Placement.Solve.status;
    r_objective =
      Option.map
        (fun (s : Placement.Solution.t) -> s.Placement.Solution.objective)
        report.Placement.Solve.solution;
    r_wall = wall;
    r_lp_s = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum -. s0;
    r_lp_iters = Telemetry.Metrics.counter_value c_iters - i0;
    r_warm_hits = Telemetry.Metrics.counter_value c_hits - h0;
    r_warm_misses = Telemetry.Metrics.counter_value c_misses - m0;
  }

(* Best-of-[reps]: system noise easily swamps sub-second solves, so the
   minimum wall (with its matching attribution) is the honest estimate
   of each engine's cost. *)
let run_engine ?(reps = 1) ~lp_engine ~time_limit inst =
  let best = ref (run_engine_once ~lp_engine ~time_limit inst) in
  for _ = 2 to reps do
    let r = run_engine_once ~lp_engine ~time_limit inst in
    if r.r_wall < !best.r_wall then best := r
  done;
  !best

(* Agreement is only checkable when both engines reach a proof: a
   limit-hit incumbent says nothing about the optimum. *)
let definitive (r : run) =
  match r.r_status with `Optimal | `Infeasible -> true | _ -> false

let agree d s =
  if not (definitive d && definitive s) then None
  else if d.r_status <> s.r_status then Some false
  else
    match (d.r_objective, s.r_objective) with
    | Some a, Some b -> Some (Float.abs (a -. b) < 1e-6)
    | None, None -> Some true
    | _ -> Some false

type point = {
  p_name : string;
  p_family : Workload.family;
  p_dense : bool;  (* large points skip the dense engine entirely *)
}

let point ?(dense = true) ~name f = { p_name = name; p_family = f; p_dense = dense }

let sweep_points ~smoke ~quick =
  let fam ?(k = 4) ?(rules = 20) ?(paths = 64) ?(capacity = 100) ?(seed = 1) ()
      =
    { Workload.default with Workload.k; rules; paths; capacity; seed }
  in
  if smoke then
    [
      point ~name:"k4 r8 p16 C60" (fam ~rules:8 ~paths:16 ~capacity:60 ());
      point ~name:"k4 r20 p32 C100" (fam ~paths:32 ());
      point ~name:"k4 r14 p24 C12" (fam ~rules:14 ~paths:24 ~capacity:12 ());
    ]
  else
    (* The exp_scalability figures' own points (figs 7-11 families). *)
    [
      point ~name:"fig7 k4 r8 C18" (fam ~rules:8 ~capacity:18 ());
      point ~name:"fig7 k4 r20 C18" (fam ~capacity:18 ());
      point ~name:"fig7 k4 r32 C100" (fam ~rules:32 ());
      point ~name:"fig7 k4 r44 C100" (fam ~rules:44 ());
      point ~name:"fig8 k6 r20 C120" (fam ~k:6 ~capacity:120 ());
      point ~name:"fig10 k4 r26 p48 C60" (fam ~rules:26 ~paths:48 ~capacity:60 ());
      point ~name:"fig11 k4 r26 p48 C16" (fam ~rules:26 ~paths:48 ~capacity:16 ());
    ]
    @ (if quick then []
       else
         [
           point ~name:"fig9 k8 r20 C140" (fam ~k:8 ~capacity:140 ());
           point ~name:"fig10 k4 r26 p64 C60"
             (fam ~rules:26 ~paths:64 ~capacity:60 ());
         ])
    (* The new axis: paper-scale instances under a 10 s cap.  The dense
       tableau cannot touch these (its per-node rebuild alone blows the
       budget), so they run sparse-only and the JSON records whether the
       revised simplex closes them. *)
    @ [
        point ~dense:false ~name:"big k8 r20 p256 C140"
          (fam ~k:8 ~paths:256 ~capacity:140 ());
        point ~dense:false ~name:"big k4 r80 p64 C200"
          (fam ~rules:80 ~capacity:200 ());
      ]

let json_of_run (r : run) =
  Harness.(
    Obj
      [
        ("status", Str (status_short r.r_status));
        ("objective", opt (fun o -> Float o) r.r_objective);
        ("wall_s", Float r.r_wall);
        ("lp_s", Float r.r_lp_s);
        ("lp_iterations", Int r.r_lp_iters);
        ("warm_start_hits", Int r.r_warm_hits);
        ("warm_start_misses", Int r.r_warm_misses);
        ( "warm_start_hit_rate",
          let total = r.r_warm_hits + r.r_warm_misses in
          if total = 0 then Null
          else Float (float_of_int r.r_warm_hits /. float_of_int total) );
      ])

let geomean = function
  | [] -> 1.0
  | rs ->
    exp
      (List.fold_left (fun a r -> a +. log r) 0.0 rs
      /. float_of_int (List.length rs))

(* ---------------- paper-scale scoreboard (LP2) ---------------- *)

(* Each scoreboard point runs the full pipeline with the default solver
   stack (sparse engine, presolve + cuts + feasibility pump) under a
   per-point wall cap, and records status / best-of-reps wall /
   attributed LP time / objective / root bound.  Unsolved points are
   included deliberately: the scoreboard records progress over time,
   while the CI gate (tools/scoreboard_gate.py) only forbids
   regressions — a previously-"opt" point falling to a limit status, or
   a solved point slowing down by more than 25%. *)

type sb_run = {
  b_status : Placement.Encode.status;
  b_wall : float;
  b_lp_s : float;
  b_objective : float option;
  b_root_bound : float option;
}

let scoreboard_points ~smoke ~quick =
  let fam ?(k = 4) ?(rules = 20) ?(paths = 64) ?(capacity = 100) ?(seed = 1) ()
      =
    { Workload.default with Workload.k; rules; paths; capacity; seed }
  in
  [
    ("sb k8 r20 p256 C140", fam ~k:8 ~paths:256 ~capacity:140 ());
    ("sb k4 r80 p64 C200", fam ~rules:80 ~capacity:200 ());
  ]
  @
  if smoke || quick then []
  else
    [
      (* Closed at the root by crash-started LP + cuts + pump; a plain
         branch & bound times out here. *)
      ("sb k4 r110 p64 C260", fam ~rules:110 ~capacity:260 ());
      ("sb k8 r44 p256 C160", fam ~k:8 ~rules:44 ~paths:256 ~capacity:160 ());
      ("sb k16 r20 p256 C140", fam ~k:16 ~paths:256 ~capacity:140 ());
    ]

let run_scoreboard_once ~time_limit inst =
  let s0 = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum in
  let report, wall =
    Harness.wall (fun () ->
        Placement.Solve.run
          ~options:(Harness.solve_options ~time_limit ~lp_engine:Simplex.Sparse ())
          inst)
  in
  {
    b_status = report.Placement.Solve.status;
    b_wall = wall;
    b_lp_s = (Telemetry.Metrics.snapshot h_lp).Telemetry.Metrics.sum -. s0;
    b_objective =
      Option.map
        (fun (s : Placement.Solution.t) -> s.Placement.Solution.objective)
        report.Placement.Solve.solution;
    b_root_bound =
      Option.map
        (fun (s : Ilp.Solver.stats) -> s.Ilp.Solver.root_bound)
        report.Placement.Solve.ilp_stats;
  }

let run_scoreboard ?(reps = 2) ~time_limit inst =
  let best = ref (run_scoreboard_once ~time_limit inst) in
  for _ = 2 to reps do
    let r = run_scoreboard_once ~time_limit inst in
    if r.b_wall < !best.b_wall then best := r
  done;
  !best

(* Relative optimality gap of the returned incumbent; 0 on a proof,
   null when either side is missing. *)
let sb_gap (r : sb_run) =
  match (r.b_status, r.b_objective, r.b_root_bound) with
  | `Optimal, _, _ | `Infeasible, _, _ -> Some 0.0
  | _, Some obj, Some rb when Float.is_finite rb ->
    Some (Float.max 0.0 ((obj -. rb) /. Float.max (Float.abs obj) 1.0))
  | _ -> None

let sb_json ~time_limit ~reps entries =
  let point_json (name, (f : Workload.family), r) =
    Harness.(
      Obj
        [
          ("point", Str name);
          ("k", Int f.Workload.k);
          ("rules", Int f.Workload.rules);
          ("paths", Int f.Workload.paths);
          ("capacity", Int f.Workload.capacity);
          ("seed", Int f.Workload.seed);
          ("status", Str (status_short r.b_status));
          ("wall_s", Float r.b_wall);
          ("lp_s", Float r.b_lp_s);
          ("objective", opt (fun o -> Float o) r.b_objective);
          ( "root_bound",
            match r.b_root_bound with
            | Some b when Float.is_finite b -> Float b
            | _ -> Null );
          ("gap", opt (fun g -> Float g) (sb_gap r));
        ])
  in
  Harness.(
    Obj
      [
        ("time_limit_s", Float time_limit);
        ("reps", Int reps);
        ("points", List (List.map point_json entries));
      ])

(* ---------------- paper-grid scoreboard (scoreboard-xl) ---------------- *)

(* The paper's own grid size: r=110 rules at C=200 on k16 p1024 and on
   k32 p2048, the latter about 255K variables and 223K rows before
   presolve.  Full mode only: a k32 solve takes seconds and close to
   1 GB, too much for the smoke and quick lanes.  Each point also
   records the pivots and refactorizations of its LP calls from the
   simplex counters, so ms/pivot tracks the per-pivot cost of the root
   LP that dominates these solves. *)
let xl_points ~smoke ~quick =
  let fam ~k ~paths =
    { Workload.default with Workload.k; rules = 110; paths; capacity = 200 }
  in
  if smoke || quick then []
  else
    [
      ("xl k16 r110 p1024 C200", fam ~k:16 ~paths:1024);
      ("xl k32 r110 p2048 C200", fam ~k:32 ~paths:2048);
    ]

(* Far above the solve times, so a point's status never depends on the
   host's speed. *)
let xl_time_limit = 600.0

let c_pivots = Telemetry.Metrics.counter "sdnplace_simplex_pivots_total"

let c_refactor =
  Telemetry.Metrics.counter "sdnplace_simplex_refactorizations_total"

type xl_run = { x_run : sb_run; x_pivots : int; x_refactors : int }

let run_xl inst =
  let p0 = Telemetry.Metrics.counter_value c_pivots in
  let f0 = Telemetry.Metrics.counter_value c_refactor in
  let r = run_scoreboard_once ~time_limit:xl_time_limit inst in
  {
    x_run = r;
    x_pivots = Telemetry.Metrics.counter_value c_pivots - p0;
    x_refactors = Telemetry.Metrics.counter_value c_refactor - f0;
  }

let ms_per_pivot x =
  if x.x_pivots = 0 then None
  else Some (1000.0 *. x.x_run.b_lp_s /. float_of_int x.x_pivots)

let xl_json entries =
  let point_json (name, (f : Workload.family), x) =
    let r = x.x_run in
    Harness.(
      Obj
        [
          ("point", Str name);
          ("k", Int f.Workload.k);
          ("rules", Int f.Workload.rules);
          ("paths", Int f.Workload.paths);
          ("capacity", Int f.Workload.capacity);
          ("seed", Int f.Workload.seed);
          ("status", Str (status_short r.b_status));
          ("objective", opt (fun o -> Float o) r.b_objective);
          ("wall_s", Float r.b_wall);
          ("lp_s", Float r.b_lp_s);
          ("pivots", Int x.x_pivots);
          ("refactorizations", Int x.x_refactors);
          ("ms_per_pivot", opt (fun v -> Float v) (ms_per_pivot x));
        ])
  in
  Harness.(
    Obj
      [
        ("time_limit_s", Float xl_time_limit);
        ("reps", Int 1);
        ("points", List (List.map point_json entries));
      ])

let run ~title ~smoke ~quick ~time_limit ~json_path () =
  let points = sweep_points ~smoke ~quick in
  let reps = 3 in
  let results =
    List.map
      (fun p ->
        let inst = Workload.build p.p_family in
        let sparse =
          run_engine ~reps ~lp_engine:Simplex.Sparse ~time_limit inst
        in
        let dense =
          if p.p_dense then
            Some (run_engine ~reps ~lp_engine:Simplex.Dense ~time_limit inst)
          else None
        in
        (p, dense, sparse))
      points
  in
  (* Table. *)
  let fmt_run = function
    | None -> "-"
    | Some r ->
      Printf.sprintf "%s (%s)" (Harness.sec r.r_wall)
        (Harness.status_short r.r_status)
  in
  let lp_ratio d s = d.r_lp_s /. Float.max s.r_lp_s 1e-6 in
  let rows =
    List.map
      (fun (p, dense, sparse) ->
        let speedup =
          match dense with
          | Some d -> Printf.sprintf "%.1fx" (d.r_wall /. Float.max sparse.r_wall 1e-6)
          | None -> "-"
        in
        let lp_speedup =
          match dense with
          | Some d -> Printf.sprintf "%.1fx" (lp_ratio d sparse)
          | None -> "-"
        in
        let agreement =
          match Option.bind dense (fun d -> agree d sparse) with
          | Some true -> "ok"
          | Some false -> "MISMATCH"
          | None -> "-"
        in
        let hit_rate =
          let total = sparse.r_warm_hits + sparse.r_warm_misses in
          if total = 0 then "-"
          else
            Printf.sprintf "%d%%"
              (int_of_float
                 (100.0 *. float_of_int sparse.r_warm_hits /. float_of_int total))
        in
        [
          p.p_name;
          fmt_run dense;
          fmt_run (Some sparse);
          speedup;
          lp_speedup;
          string_of_int sparse.r_lp_iters;
          hit_rate;
          agreement;
        ])
      results
  in
  Harness.print_table ~title
    ~headers:
      [
        "point"; "dense"; "sparse"; "speedup"; "lp speedup"; "sparse iters";
        "warm"; "diff";
      ]
    rows;
  (* Aggregates. *)
  let wall_ratios =
    List.filter_map
      (fun (_, dense, sparse) ->
        Option.map (fun d -> d.r_wall /. Float.max sparse.r_wall 1e-6) dense)
      results
  in
  let lp_ratios =
    List.filter_map
      (fun (_, dense, sparse) ->
        Option.map (fun d -> lp_ratio d sparse) dense)
      results
  in
  let wall_geo = geomean wall_ratios and lp_geo = geomean lp_ratios in
  let mismatches =
    List.length
      (List.filter
         (fun (_, dense, sparse) ->
           Option.bind dense (fun d -> agree d sparse) = Some false)
         results)
  in
  Printf.printf
    "geometric-mean speedup (dense/sparse) over %d points: %.2fx end-to-end, \
     %.2fx LP time\n"
    (List.length wall_ratios) wall_geo lp_geo;
  if mismatches > 0 then
    Printf.printf "DIFFERENTIAL FAILURES: %d point(s) disagree\n" mismatches;
  (* Paper-scale scoreboard: best-of-reps, per-point cap = [time_limit]. *)
  let sb_reps = if smoke then 1 else 2 in
  let scoreboard =
    List.map
      (fun (name, f) ->
        (name, f, run_scoreboard ~reps:sb_reps ~time_limit (Workload.build f)))
      (scoreboard_points ~smoke ~quick)
  in
  Harness.print_table ~title:"Paper-scale scoreboard (LP2)"
    ~headers:[ "point"; "status"; "wall"; "lp s"; "objective"; "gap" ]
    (List.map
       (fun (name, _, r) ->
         [
           name;
           Harness.status_short r.b_status;
           Harness.sec r.b_wall;
           Harness.sec r.b_lp_s;
           (match r.b_objective with
           | Some o -> Printf.sprintf "%.0f" o
           | None -> "-");
           (match sb_gap r with
           | Some g -> Printf.sprintf "%.3f" g
           | None -> "-");
         ])
       scoreboard);
  let xl =
    List.map
      (fun (name, f) -> (name, f, run_xl (Workload.build f)))
      (xl_points ~smoke ~quick)
  in
  if xl <> [] then
    Harness.print_table ~title:"Paper-grid scoreboard (scoreboard-xl)"
      ~headers:
        [
          "point"; "status"; "wall"; "lp s"; "pivots"; "refactors"; "ms/pivot";
          "objective";
        ]
      (List.map
         (fun (name, _, x) ->
           let r = x.x_run in
           [
             name;
             Harness.status_short r.b_status;
             Harness.sec r.b_wall;
             Harness.sec r.b_lp_s;
             string_of_int x.x_pivots;
             string_of_int x.x_refactors;
             (match ms_per_pivot x with
             | Some v -> Printf.sprintf "%.2f" v
             | None -> "-");
             (match r.b_objective with
             | Some o -> Printf.sprintf "%.0f" o
             | None -> "-");
           ])
         xl);
  (* Machine-readable dump. *)
  let point_json (p, dense, sparse) =
    let f = p.p_family in
    Harness.(
      Obj
        [
          ("point", Str p.p_name);
          ("k", Int f.Workload.k);
          ("rules", Int f.Workload.rules);
          ("paths", Int f.Workload.paths);
          ("capacity", Int f.Workload.capacity);
          ("seed", Int f.Workload.seed);
          ("dense", opt json_of_run dense);
          ("sparse", json_of_run sparse);
          ( "speedup",
            opt
              (fun d -> Float (d.r_wall /. Float.max sparse.r_wall 1e-6))
              dense );
          ("lp_speedup", opt (fun d -> Float (lp_ratio d sparse)) dense);
          ( "agree",
            opt (fun a -> Bool a) (Option.bind dense (fun d -> agree d sparse))
          );
        ])
  in
  Harness.(
    write_json ~path:json_path
      (Obj
         ([
            ("experiment", Str "lp_engine_comparison");
            ( "mode",
              Str (if smoke then "smoke" else if quick then "quick" else "full")
            );
            ("time_limit_s", Float time_limit);
            ("reps", Int reps);
            ("points", List (List.map point_json results));
            ("scoreboard", sb_json ~time_limit ~reps:sb_reps scoreboard);
          ]
         @ (if xl = [] then [] else [ ("scoreboard-xl", xl_json xl) ])
         @ [
             ("geomean_speedup", Float wall_geo);
             ("geomean_lp_speedup", Float lp_geo);
             ("differential_failures", Int mismatches);
           ])));
  (* Verdict for the CI canary: LP-time ratio, because on smoke-sized
     instances the shared pipeline overhead dominates wall clock and the
     wall ratio is mostly noise. *)
  let ok = mismatches = 0 && (not smoke || lp_geo >= 1.0) in
  if not ok then
    Printf.printf "exp_solver: FAILED (%s)\n"
      (if mismatches > 0 then "differential mismatch"
       else "sparse LP slower than dense on the smoke set");
  ok
