(* Differential suite for the sparse revised simplex: the dense tableau
   is the reference oracle, and the two engines must agree — on random
   bounded LPs, on classic degenerate/cycling instances, and end-to-end
   through the placement pipeline.  Also unit-level coverage of the LU
   kernel and of the persistent-instance API (dual reoptimize, snapshot
   transfer, cross-solve basis chaining) that the warm-started branch &
   bound builds on. *)

open Simplex

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- random-LP differential ----------------------------- *)

(* LPs built from a seed the way test_simplex builds them: around a known
   feasible point so most cases are feasible, with equality rows through
   the point to force degeneracy. *)
let lp_of_seed seed =
  let g = Prng.create seed in
  let n = Prng.int_in g 2 7 in
  let x0 = Array.init n (fun _ -> Prng.float g 3.0) in
  let num_rows = Prng.int_in g 1 7 in
  let rows =
    List.init num_rows (fun _ ->
        let coeffs =
          List.init n (fun j -> (j, float_of_int (Prng.int_in g (-3) 3)))
        in
        let lhs =
          List.fold_left (fun acc (j, c) -> acc +. (c *. x0.(j))) 0.0 coeffs
        in
        match Prng.int g 4 with
        | 0 -> { coeffs; sense = Le; rhs = lhs +. Prng.float g 2.0 }
        | 1 -> { coeffs; sense = Ge; rhs = lhs -. Prng.float g 2.0 }
        | 2 -> { coeffs; sense = Le; rhs = lhs } (* tight: degenerate *)
        | _ -> { coeffs; sense = Eq; rhs = lhs })
  in
  let minimize =
    List.init n (fun j -> (j, float_of_int (Prng.int_in g (-2) 4)))
  in
  let upper =
    Array.init n (fun _ -> if Prng.int g 3 = 0 then infinity else 5.0)
  in
  { num_vars = n; minimize; rows; upper }

let same_status a b =
  match (a, b) with
  | Optimal { objective = oa; _ }, Optimal { objective = ob; _ } ->
    Float.abs (oa -. ob) < 1e-5
  | Infeasible, Infeasible | Unbounded, Unbounded -> true
  (* An iteration-limited engine proves nothing either way. *)
  | Iteration_limit, _ | _, Iteration_limit -> true
  | _ -> false

let qcheck_engines_agree =
  QCheck.Test.make ~count:300 ~name:"dense and sparse engines agree"
    QCheck.small_nat (fun seed ->
      let p = lp_of_seed seed in
      let d = solve ~engine:Dense p and s = solve ~engine:Sparse p in
      (match s with
      | Optimal { solution; _ } ->
        if not (feasible p solution) then
          QCheck.Test.fail_report "sparse optimum violates constraints"
      | _ -> ());
      same_status d s)

(* ---------------- degenerate / cycling regressions -------------------- *)

(* Beale's cycling example: the textbook instance on which the naive
   most-negative-cost rule cycles forever.  Both engines must terminate
   (anti-cycling degrades to Bland's rule on a stall) at the optimum
   -0.05 = obj(1/25, 0, 1, 0). *)
let test_beale_cycling () =
  let p =
    {
      num_vars = 4;
      minimize = [ (0, -0.75); (1, 150.0); (2, -0.02); (3, 6.0) ];
      rows =
        [
          {
            coeffs = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ];
            sense = Le;
            rhs = 0.0;
          };
          {
            coeffs = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ];
            sense = Le;
            rhs = 0.0;
          };
          { coeffs = [ (2, 1.0) ]; sense = Le; rhs = 1.0 };
        ];
      upper = Array.make 4 infinity;
    }
  in
  List.iter
    (fun engine ->
      match solve ~engine p with
      | Optimal { objective; _ } ->
        Alcotest.(check (float 1e-6))
          (engine_name engine ^ " objective")
          (-0.05) objective
      | other ->
        Alcotest.failf "%s: expected optimal, got %a" (engine_name engine)
          pp_status other)
    [ Dense; Sparse ]

(* A block of identical tight covering rows: every pivot is degenerate
   (zero step) until the entering variable finally moves. *)
let test_degenerate_block () =
  let row = { coeffs = [ (0, 1.0); (1, 1.0) ]; sense = Ge; rhs = 1.0 } in
  let p =
    {
      num_vars = 2;
      minimize = [ (0, 1.0); (1, 2.0) ];
      rows = List.init 12 (fun _ -> row);
      upper = Array.make 2 1.0;
    }
  in
  match solve ~engine:Sparse p with
  | Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "objective" 1.0 objective;
    Alcotest.(check (float 1e-6)) "x0" 1.0 solution.(0)
  | other -> Alcotest.failf "expected optimal, got %a" pp_status other

(* ---------------- LU kernel ------------------------------------------ *)

(* Random diagonally dominant sparse bases: factor, then check both
   solve directions against the matrix itself. *)
let test_lu_roundtrip () =
  let g = Prng.create 7 in
  for _ = 1 to 50 do
    let m = Prng.int_in g 2 16 in
    (* cols.(k) = sparse column k as (row, value) pairs *)
    let cols =
      Array.init m (fun k ->
          let off =
            List.filter_map
              (fun _ ->
                let i = Prng.int g m in
                if i = k then None
                else Some (i, Prng.float g 2.0 -. 1.0))
              (List.init (Prng.int g 4) Fun.id)
          in
          (k, 4.0 +. Prng.float g 2.0) :: off)
    in
    let lu = Lu.factor ~m (fun k f -> List.iter (fun (i, v) -> f i v) cols.(k)) in
    let all = Array.init m Fun.id in
    let b = Array.init m (fun _ -> Prng.float g 2.0 -. 1.0) in
    let x = Array.make m 0.0 in
    ignore (Lu.ftran lu ~b ~bidx:all ~bn:m ~x ~xidx:(Array.make m 0));
    (* B x = sum_k x_k * col_k must reproduce b. *)
    let bx = Array.make m 0.0 in
    Array.iteri
      (fun k col -> List.iter (fun (i, v) -> bx.(i) <- bx.(i) +. (v *. x.(k)))
          col)
      cols;
    Array.iteri
      (fun i bi ->
        if Float.abs (bx.(i) -. bi) > 1e-8 then
          Alcotest.failf "ftran residual %g at row %i (m=%d)"
            (bx.(i) -. bi) i m)
      b;
    let c = Array.init m (fun _ -> Prng.float g 2.0 -. 1.0) in
    let y = Array.make m 0.0 in
    ignore (Lu.btran lu ~c ~cidx:all ~cn:m ~y ~yidx:(Array.make m 0));
    (* B^T y: column k dotted with y must reproduce c_k. *)
    Array.iteri
      (fun k col ->
        let dot =
          List.fold_left (fun acc (i, v) -> acc +. (v *. y.(i))) 0.0 col
        in
        if Float.abs (dot -. c.(k)) > 1e-8 then
          Alcotest.failf "btran residual %g at slot %i (m=%d)"
            (dot -. c.(k)) k m)
      cols
  done

let test_lu_singular () =
  (* Two identical columns: rank deficient, the factorization must say so. *)
  let col _ f =
    f 0 1.0;
    f 1 2.0
  in
  match Lu.factor ~m:2 col with
  | _ -> Alcotest.fail "singular basis factored"
  | exception Lu.Singular -> ()

(* ---------------- persistent instance: dual reoptimize ---------------- *)

(* The covering LP min Σx, x0+x1>=1, x2+x3>=1, x0+x2<=1 over [0,1]^4;
   re-solves after bound pinning (exactly what branch & bound does to a
   child node) must match a cold solve of the pinned instance. *)
let covering_instance () =
  Revised.create ~nvars:4
    ~obj:[ (0, 1.0); (1, 1.0); (2, 1.0); (3, 1.0) ]
    ~lower:(Array.make 4 0.0) ~upper:(Array.make 4 1.0)
    ~rows:
      [|
        ([ (0, 1.0); (1, 1.0) ], Revised.Ge, 1.0);
        ([ (2, 1.0); (3, 1.0) ], Revised.Ge, 1.0);
        ([ (0, 1.0); (2, 1.0) ], Revised.Le, 1.0);
      |]

let objective_of name = function
  | Revised.Optimal { objective; _ } -> objective
  | _ -> Alcotest.failf "%s: expected optimal" name

(* ---------------- hypersparse solves vs the dense loop ---------------- *)

(* The hypersparse FTRAN/BTRAN must return what the full loops over all
   m steps return: the same flops in the same order, so the same bits,
   except that a zero may carry either sign (which [Float.equal] ignores
   and no caller can observe).  Returned index lists must name exactly
   the nonzero entries. *)

let same_vector a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

(* [idx.(0 .. n-1)] names each nonzero entry of [v] exactly once. *)
let lists_nonzeros v idx n =
  let listed = Array.make (Array.length v) false in
  let ok = ref true in
  for p = 0 to n - 1 do
    if listed.(idx.(p)) then ok := false;
    listed.(idx.(p)) <- true
  done;
  Array.iteri (fun i x -> if x <> 0.0 && not listed.(i) then ok := false) v;
  !ok

(* A slack-heavy basis as the simplex sees one: mostly unit columns, a
   few structural columns with a dominant diagonal (so the basis is
   nonsingular) and off-diagonal entries that give the factors real
   reach.  One case in four also chains each column to the next row, so
   a solve can reach most steps and must switch to the full loop
   midway. *)
let slack_heavy_basis g m =
  let chain = Prng.int g 4 = 0 in
  Array.init m (fun k ->
      let next = if chain && k + 1 < m then [ (k + 1, 1.0) ] else [] in
      if Prng.int g 100 < 80 then
        ((k, if Prng.bool g then 4.0 else -4.0) :: next)
      else
        (k, 4.0 +. Prng.float g 2.0)
        :: next
        @ List.filter_map
            (fun _ ->
              let i = Prng.int g m in
              if i = k || i = k + 1 then None
              else Some (i, Prng.float g 1.0 -. 0.5))
            (List.init (1 + Prng.int g 3) Fun.id))

(* A sparse right-hand side: usually a few entries, sometimes dense
   enough that the solve falls back to the full loop. *)
let sparse_rhs g m =
  let nz = if Prng.int g 4 = 0 then 1 + Prng.int g m else 1 + Prng.int g 3 in
  let v = Array.make m 0.0 and idx = Array.make m 0 and n = ref 0 in
  for _ = 1 to nz do
    let i = Prng.int g m in
    if v.(i) = 0.0 then begin
      v.(i) <- Prng.float g 2.0 -. 1.0;
      idx.(!n) <- i;
      incr n
    end
  done;
  (v, idx, !n)

let qcheck_lu_hypersparse =
  QCheck.Test.make ~count:200 ~name:"LU hypersparse solves = dense loop"
    QCheck.small_nat (fun seed ->
      let g = Prng.create (seed + 5000) in
      let m = Prng.int_in g 2 300 in
      let cols = slack_heavy_basis g m in
      let lu =
        Lu.factor ~m (fun k f -> List.iter (fun (i, v) -> f i v) cols.(k))
      in
      let ok = ref true in
      for _ = 1 to 8 do
        let b, bidx, bn = sparse_rhs g m in
        let solve f =
          let x = Array.make m 0.0 and xidx = Array.make m 0 in
          let n = f lu ~b ~bidx ~bn ~x ~xidx in
          if not (lists_nonzeros x xidx n) then ok := false;
          x
        in
        let bt f =
          let y = Array.make m 0.0 and yidx = Array.make m 0 in
          let n = f lu ~c:b ~cidx:bidx ~cn:bn ~y ~yidx in
          if not (lists_nonzeros y yidx n) then ok := false;
          y
        in
        let b0 = Array.copy b in
        if not (same_vector (solve Lu.ftran) (solve Lu.ftran_dense)) then
          ok := false;
        if not (same_vector (bt Lu.btran) (bt Lu.btran_dense)) then ok := false;
        if not (same_vector b b0) then ok := false
      done;
      !ok)

(* Revised's tolerance for the nonzero lists it walks. *)
let drop = 1e-11

let ascending_above_drop v =
  let l = ref [] in
  for i = Array.length v - 1 downto 0 do
    if Float.abs v.(i) > drop then l := i :: !l
  done;
  Array.of_list !l

(* A random sparse LP over [0,1] boxes whose all-slack start needs some
   artificials, stopped after a few iterations so the factorization
   usually carries an eta file. *)
let partial_solve seed =
  let g = Prng.create (seed + 7000) in
  let n = Prng.int_in g 4 150 and m = Prng.int_in g 2 200 in
  let rows =
    Array.init m (fun _ ->
        let terms =
          List.init (1 + Prng.int g 4) (fun _ ->
              (Prng.int g n, float_of_int (Prng.int_in g 1 4)))
        in
        match Prng.int g 3 with
        | 0 -> (terms, Revised.Ge, 1.0)
        | 1 -> (terms, Revised.Le, float_of_int (Prng.int_in g 1 6))
        | _ -> (terms, Revised.Eq, float_of_int (Prng.int_in g 0 2)))
  in
  let obj = List.init n (fun j -> (j, float_of_int (Prng.int_in g (-3) 5))) in
  let t =
    Revised.create ~nvars:n ~obj ~lower:(Array.make n 0.0)
      ~upper:(Array.make n 1.0) ~rows
  in
  ignore (Revised.optimize ~max_iters:(1 + Prng.int g 40) t);
  (t, n + m + m, m)

let qcheck_revised_hypersparse =
  QCheck.Test.make ~count:200
    ~name:"Revised FTRAN/BTRAN through the eta file = dense reference"
    QCheck.small_nat (fun seed ->
      let t, ncols, m = partial_solve seed in
      match Revised.ftran_column t 0 with
      (* No factorization: the solve hit a singular basis. *)
      | exception Invalid_argument _ -> true
      | _ ->
        let ok = ref true in
        let check (v, nz) (v', nz') =
          if not (same_vector v v') then ok := false;
          if nz <> nz' || nz <> ascending_above_drop v then ok := false
        in
        let g = Prng.create seed in
        for _ = 1 to 40 do
          let q = Prng.int g ncols and k = Prng.int g m in
          check (Revised.ftran_column t q)
            (Revised.ftran_column ~dense:true t q);
          check (Revised.btran_unit t k) (Revised.btran_unit ~dense:true t k)
        done;
        !ok)

(* The property above is only as strong as its eta files: most of its
   cases must stop with product-form etas on top of the LU factors. *)
let test_differential_covers_etas () =
  let with_etas = ref 0 in
  for seed = 0 to 99 do
    let t, _, _ = partial_solve seed in
    if (Revised.counters t).Revised.eta_len > 0 then incr with_etas
  done;
  if !with_etas < 50 then
    Alcotest.failf "only %d of 100 cases carry an eta file" !with_etas

(* ---------------- pinned pivot path ----------------------------------- *)

(* The LP relaxation of one fixed placement model, solved cold.  Its
   counters and objective were recorded before the solves went
   hypersparse; any change to the solve arithmetic (a different pivot,
   flip or refactorization anywhere on the path) shows up here. *)
let placement_lp family =
  let layout = Placement.Layout.build (Workload.build family) in
  let model, _ = Placement.Encode.to_model layout in
  let n = Ilp.Model.num_vars model in
  let term (c, v) = ((v : Ilp.Model.var :> int), c) in
  let rows =
    Array.of_list
      (List.map
         (fun (r : Ilp.Model.row) ->
           ( List.map term r.terms,
             (match r.sense with
             | Ilp.Model.Le -> Revised.Le
             | Ilp.Model.Ge -> Revised.Ge
             | Ilp.Model.Eq -> Revised.Eq),
             r.rhs ))
         (Ilp.Model.rows model))
  in
  Revised.create ~nvars:n
    ~obj:(List.map term (Ilp.Model.objective model))
    ~lower:(Array.make n 0.0) ~upper:(Array.make n 1.0) ~rows

let test_pinned_pivot_path () =
  let lp =
    placement_lp
      { Workload.default with Workload.k = 8; paths = 256; capacity = 140 }
  in
  Alcotest.(check (float 0.0))
    "objective" 64.0
    (objective_of "k8 r20 p256 C140" (Revised.optimize lp));
  let c = Revised.counters lp in
  Alcotest.(check (list (pair string int)))
    "counters"
    [
      ("pivots", 4726);
      ("bound_flips", 62);
      ("iterations", 4792);
      ("refactorizations", 37);
      ("eta_len", 82);
      ("cold_falls", 0);
    ]
    [
      ("pivots", c.Revised.pivots);
      ("bound_flips", c.bound_flips);
      ("iterations", c.iterations);
      ("refactorizations", c.refactorizations);
      ("eta_len", c.eta_len);
      ("cold_falls", c.cold_falls);
    ]

let test_dual_reoptimize () =
  let t = covering_instance () in
  Alcotest.(check bool) "no basis before solve" false (Revised.has_basis t);
  let obj0 = objective_of "cold" (Revised.optimize t) in
  Alcotest.(check (float 1e-7)) "cold objective" 2.0 obj0;
  Alcotest.(check bool) "basis after solve" true (Revised.has_basis t);
  (* Pin x0 = 0 (a branch), reoptimize dual-side: optimum stays 2. *)
  Revised.set_bounds t 0 0.0 0.0;
  Alcotest.(check (float 1e-7))
    "pinned x0=0" 2.0
    (objective_of "reopt x0=0" (Revised.reoptimize t));
  (* Also pin x1 = 0: the first covering row is violated — infeasible. *)
  Revised.set_bounds t 1 0.0 0.0;
  (match Revised.reoptimize t with
  | Revised.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible after pinning x0=x1=0");
  (* Relax both pins: back to the original optimum. *)
  Revised.set_bounds t 0 0.0 1.0;
  Revised.set_bounds t 1 0.0 1.0;
  Alcotest.(check (float 1e-7))
    "unpinned" 2.0
    (objective_of "reopt unpinned" (Revised.reoptimize t));
  let c = Revised.counters t in
  Alcotest.(check bool) "refactorized at least once" true
    (c.Revised.refactorizations >= 1)

(* Random pin/unpin walks: every reoptimize must match a cold solve of a
   fresh instance with the same bounds. *)
let qcheck_reoptimize_matches_cold =
  QCheck.Test.make ~count:100 ~name:"dual reoptimize = cold solve"
    QCheck.(small_nat)
    (fun seed ->
      let g = Prng.create (seed + 1000) in
      let t = covering_instance () in
      ignore (Revised.optimize t);
      let bounds = Array.make 4 (0.0, 1.0) in
      let ok = ref true in
      for _ = 1 to 6 do
        let j = Prng.int g 4 in
        let bl, bu =
          match Prng.int g 3 with
          | 0 -> (0.0, 0.0)
          | 1 -> (1.0, 1.0)
          | _ -> (0.0, 1.0)
        in
        bounds.(j) <- (bl, bu);
        Revised.set_bounds t j bl bu;
        let fresh = covering_instance () in
        Array.iteri (fun i (l, u) -> Revised.set_bounds fresh i l u) bounds;
        let warm = Revised.reoptimize t and cold = Revised.optimize fresh in
        (match (warm, cold) with
        | Revised.Optimal { objective = a; _ }, Revised.Optimal { objective = b; _ }
          ->
          if Float.abs (a -. b) > 1e-7 then ok := false
        | Revised.Infeasible, Revised.Infeasible -> ()
        | _ -> ok := false)
      done;
      !ok)

(* ---------------- snapshots ------------------------------------------ *)

let test_snapshot_transfer () =
  let a = covering_instance () in
  ignore (Revised.optimize a);
  let s = Revised.snapshot a in
  (* Same-shaped instance: the snapshot installs and warm-starts. *)
  let b = covering_instance () in
  Alcotest.(check bool) "restore into same shape" true (Revised.restore b s);
  Alcotest.(check bool) "restored basis counts" true (Revised.has_basis b);
  Alcotest.(check (float 1e-7))
    "warm solve from snapshot" 2.0
    (objective_of "warm" (Revised.reoptimize b));
  (* Differently-shaped instance: fingerprint mismatch, refused. *)
  let c =
    Revised.create ~nvars:2 ~obj:[ (0, 1.0) ] ~lower:(Array.make 2 0.0)
      ~upper:(Array.make 2 1.0)
      ~rows:[| ([ (0, 1.0); (1, 1.0) ], Revised.Ge, 1.0) |]
  in
  Alcotest.(check bool) "restore into other shape refused" false
    (Revised.restore c s);
  Alcotest.(check bool) "refused restore leaves no basis" false
    (Revised.has_basis c)

(* ---------------- basis chaining across ILP solves -------------------- *)

let tiny_model () =
  let m = Ilp.Model.create () in
  let v = Array.init 4 (fun _ -> Ilp.Model.binary m) in
  Ilp.Model.add_ge m [ (1.0, v.(0)); (1.0, v.(1)) ] 1.0;
  Ilp.Model.add_ge m [ (1.0, v.(2)); (1.0, v.(3)) ] 1.0;
  Ilp.Model.add_le m [ (1.0, v.(0)); (1.0, v.(2)) ] 1.0;
  Ilp.Model.set_objective m (Array.to_list (Array.map (fun x -> (1.0, x)) v));
  m

let test_basis_cell_chaining () =
  let config =
    { Ilp.Solver.default_config with Ilp.Solver.lp_engine = Simplex.Sparse }
  in
  let cell = ref None in
  let obj1 =
    match Ilp.Solver.solve ~config ~basis:cell (tiny_model ()) with
    | Ilp.Solver.Optimal s, _ -> s.Ilp.Solver.objective
    | _ -> Alcotest.fail "first solve not optimal"
  in
  Alcotest.(check bool) "cell filled after solve" true (!cell <> None);
  (* A second same-shaped solve seeds its first LP from the cell and must
     reach the same optimum. *)
  let obj2 =
    match Ilp.Solver.solve ~config ~basis:cell (tiny_model ()) with
    | Ilp.Solver.Optimal s, _ -> s.Ilp.Solver.objective
    | _ -> Alcotest.fail "chained solve not optimal"
  in
  Alcotest.(check (float 1e-9)) "chained optimum identical" obj1 obj2;
  Alcotest.(check bool) "cell still filled" true (!cell <> None)

(* ---------------- end-to-end placement differential ------------------- *)

let solve_with engine family =
  let inst = Workload.build family in
  let options =
    Placement.Solve.options ~lp_engine:engine
      ~ilp_config:{ Ilp.Solver.default_config with time_limit = 20.0 }
      ()
  in
  let report = Placement.Solve.run ~options inst in
  ( report.Placement.Solve.status,
    Option.map
      (fun (s : Placement.Solution.t) -> s.Placement.Solution.objective)
      report.Placement.Solve.solution )

let status_str = function
  | `Optimal -> "optimal"
  | `Feasible -> "feasible"
  | `Infeasible -> "infeasible"
  | `Unknown -> "unknown"

let test_placement_differential () =
  List.iter
    (fun family ->
      let ds, dobj = solve_with Simplex.Dense family in
      let ss, sobj = solve_with Simplex.Sparse family in
      Alcotest.(check string) "status" (status_str ds) (status_str ss);
      match (dobj, sobj) with
      | Some a, Some b -> Alcotest.(check (float 1e-6)) "objective" a b
      | None, None -> ()
      | _ -> Alcotest.fail "one engine produced a solution, the other none")
    [
      { Workload.default with Workload.rules = 8; paths = 16; capacity = 60 };
      {
        Workload.default with
        Workload.rules = 14;
        paths = 24;
        capacity = 12;
        seed = 3;
      };
      {
        Workload.default with
        Workload.k = 6;
        rules = 6;
        paths = 20;
        capacity = 30;
        seed = 5;
      };
    ]

let suite =
  [
    qtest qcheck_engines_agree;
    Alcotest.test_case "Beale cycling regression" `Quick test_beale_cycling;
    Alcotest.test_case "degenerate covering block" `Quick test_degenerate_block;
    Alcotest.test_case "LU factor/ftran/btran roundtrip" `Quick
      test_lu_roundtrip;
    Alcotest.test_case "LU rejects singular bases" `Quick test_lu_singular;
    qtest qcheck_lu_hypersparse;
    qtest qcheck_revised_hypersparse;
    Alcotest.test_case "hypersparse differential covers eta files" `Quick
      test_differential_covers_etas;
    Alcotest.test_case "pinned pivot path of a placement LP" `Quick
      test_pinned_pivot_path;
    Alcotest.test_case "dual reoptimize after bound pinning" `Quick
      test_dual_reoptimize;
    qtest qcheck_reoptimize_matches_cold;
    Alcotest.test_case "snapshot transfer is fingerprint-guarded" `Quick
      test_snapshot_transfer;
    Alcotest.test_case "basis cell chains across ILP solves" `Quick
      test_basis_cell_chaining;
    Alcotest.test_case "placement pipeline differential" `Quick
      test_placement_differential;
  ]
