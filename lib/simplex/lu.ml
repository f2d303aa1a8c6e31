exception Singular

(* One factor step: pivot position, L multipliers below it, U row. *)
type step = {
  pr : int;  (** pivot row (constraint-row index) *)
  pc : int;  (** pivot column (basis-slot index) *)
  l_idx : int array;  (** rows receiving a multiplier *)
  l_val : float array;
  u_idx : int array;  (** later basis slots in the pivot row *)
  u_val : float array;
  u_piv : float;
}

type t = {
  m : int;
  steps : step array;
  (* Transposed factor indices, built once per factorization, so both
     triangular backward passes run push-form: work lands only on the
     nonzero entries of the solution instead of scanning every stored
     nonzero of L and U.  [ut] maps a column to the steps whose U row
     references it (push target: that step's accumulator); [lt] maps a
     row to the steps whose L column references it (push target: that
     step's pivot row). *)
  ut_ptr : int array;
  ut_step : int array;
  ut_val : float array;
  lt_ptr : int array;
  lt_tgt : int array;
  lt_val : float array;
  (* Inverse pivot maps, so a solve can start from the nonzeros of its
     right-hand side and follow the transpose indices above step to
     step instead of looping over all m steps. *)
  step_of_row : int array;  (** row -> the step pivoting on it *)
  step_of_slot : int array;  (** slot -> the step whose pivot column it is *)
  (* Scratch.  [z], [s] and [ux] are all zero between solves. *)
  z : float array;  (** row space *)
  s : float array;  (** slot space *)
  ux : float array;  (** per-step accumulator for the U solve *)
  heap : int array;  (** binary min-heap of step keys *)
  mutable hn : int;
  mark : int array;  (** step -> generation that queued it *)
  mutable gen : int;
  reach : int array;  (** steps a first pass left nonzero *)
  nnz : int;
}

let tau = 0.1 (* threshold partial pivoting *)
let drop_tol = 1e-12
let abs_tol = 1e-11

(* The active submatrix lives in flat arrays: rows as unordered
   (column, value) pairs, plus an exact column -> active-rows index for
   Markowitz selection.  Columns are bucketed by active count through an
   intrusive doubly-linked list so the sparsest column is found in O(1)
   amortized; the elimination itself runs through a sparse accumulator
   so each update is array reads, never a hash probe.  All scans and
   tie-breaks are index-ordered, keeping the factorization
   deterministic. *)
let factor ?reuse ~m col =
  (* Row storage. *)
  let rlen = Array.make m 0 in
  let rcol = Array.make m [||] in
  let rval = Array.make m [||] in
  let row_push i c v =
    let len = rlen.(i) in
    if len = Array.length rcol.(i) then begin
      let cap = max 4 (2 * len) in
      let nc = Array.make cap 0 and nv = Array.make cap 0.0 in
      Array.blit rcol.(i) 0 nc 0 len;
      Array.blit rval.(i) 0 nv 0 len;
      rcol.(i) <- nc;
      rval.(i) <- nv
    end;
    rcol.(i).(len) <- c;
    rval.(i).(len) <- v;
    rlen.(i) <- len + 1
  in
  let row_find i c =
    let cols = rcol.(i) in
    let len = rlen.(i) in
    let k = ref (-1) in
    (try
       for p = 0 to len - 1 do
         if cols.(p) = c then begin
           k := p;
           raise Exit
         end
       done
     with Exit -> ());
    !k
  in
  (* Column -> active rows (exact, unordered). *)
  let clen = Array.make m 0 in
  let crow = Array.make m [||] in
  (* Count buckets: doubly-linked lists threaded through columns. *)
  let bhead = Array.make (m + 1) (-1) in
  let bnext = Array.make m (-1) in
  let bprev = Array.make m (-1) in
  let inbucket = Array.make m (-1) in
  let cur_min = ref 0 in
  let unlink c =
    let b = inbucket.(c) in
    if b >= 0 then begin
      let p = bprev.(c) and n = bnext.(c) in
      if p >= 0 then bnext.(p) <- n else bhead.(b) <- n;
      if n >= 0 then bprev.(n) <- p;
      inbucket.(c) <- -1
    end
  in
  let relink c =
    let b = clen.(c) in
    if inbucket.(c) <> b then begin
      unlink c;
      let h = bhead.(b) in
      bnext.(c) <- h;
      bprev.(c) <- -1;
      if h >= 0 then bprev.(h) <- c;
      bhead.(b) <- c;
      inbucket.(c) <- b;
      if b < !cur_min then cur_min := b
    end
  in
  let crow_push c i =
    let len = clen.(c) in
    if len = Array.length crow.(c) then begin
      let cap = max 4 (2 * len) in
      let nr = Array.make cap 0 in
      Array.blit crow.(c) 0 nr 0 len;
      crow.(c) <- nr
    end;
    crow.(c).(len) <- i;
    clen.(c) <- len + 1;
    relink c
  in
  let crow_remove c i =
    let rows = crow.(c) in
    let len = clen.(c) in
    (try
       for p = 0 to len - 1 do
         if rows.(p) = i then begin
           rows.(p) <- rows.(len - 1);
           clen.(c) <- len - 1;
           raise Exit
         end
       done
     with Exit -> ());
    relink c
  in
  (* Load the basis columns (duplicate entries within a column merge). *)
  for k = 0 to m - 1 do
    col k (fun i v ->
        if Float.abs v > drop_tol then begin
          let p = row_find i k in
          if p < 0 then begin
            row_push i k v;
            crow_push k i
          end
          else begin
            let nv = rval.(i).(p) +. v in
            if Float.abs nv <= drop_tol then begin
              rcol.(i).(p) <- rcol.(i).(rlen.(i) - 1);
              rval.(i).(p) <- rval.(i).(rlen.(i) - 1);
              rlen.(i) <- rlen.(i) - 1;
              crow_remove k i
            end
            else rval.(i).(p) <- nv
          end
        end)
  done;
  for c = 0 to m - 1 do
    relink c
  done;
  cur_min := 0;
  let col_active = Array.make m true in
  (* Sparse accumulator for the elimination updates. *)
  let wv = Array.make m 0.0 in
  let wstamp = Array.make m 0 in
  let estamp = Array.make m 0 in
  let stamp = ref 0 in
  (* Scratch for pivot selection: candidate rows and their magnitudes,
     gathered once per considered column. *)
  let cand_rows = Array.make m 0 in
  let cand_vals = Array.make m 0.0 in
  let steps = Array.make m None in
  let nnz = ref 0 in
  for step_k = 0 to m - 1 do
    (* Markowitz-style selection: among the sparsest active columns pick
       the entry minimizing (rowcount-1)*(colcount-1) that passes the
       threshold test; ties break on (magnitude, column, row) so the
       choice is independent of scan order. *)
    while !cur_min <= m && bhead.(!cur_min) < 0 do
      incr cur_min
    done;
    if !cur_min <= 0 || !cur_min > m then raise Singular;
    let best_metric = ref max_int
    and best_abs = ref 0.0
    and best_r = ref (-1)
    and best_c = ref (-1) in
    let consider c =
      let cc = clen.(c) in
      if cc > 0 then begin
        let colmax = ref 0.0 in
        for p = 0 to cc - 1 do
          let i = crow.(c).(p) in
          let v = Float.abs rval.(i).(row_find i c) in
          cand_rows.(p) <- i;
          cand_vals.(p) <- v;
          if v > !colmax then colmax := v
        done;
        if !colmax > abs_tol then
          for p = 0 to cc - 1 do
            let i = cand_rows.(p) in
            let v = cand_vals.(p) in
            if v >= tau *. !colmax && v > abs_tol then begin
              let metric = (rlen.(i) - 1) * (cc - 1) in
              let better =
                metric < !best_metric
                || (metric = !best_metric
                    && (v > !best_abs *. 1.000001
                        || (v >= !best_abs *. 0.999999
                            && (c < !best_c || (c = !best_c && i < !best_r)))))
              in
              if better then begin
                best_metric := metric;
                best_abs := v;
                best_r := i;
                best_c := c
              end
            end
          done
      end
    in
    (* Pass 1: up to 8 columns from the sparsest bucket. *)
    let scanned = ref 0 and c = ref bhead.(!cur_min) in
    while !c >= 0 && !scanned < 8 do
      consider !c;
      incr scanned;
      c := bnext.(!c)
    done;
    (* Pass 2: widen to every active column if the threshold rejected
       the whole bucket sample. *)
    if !best_r < 0 then
      for c = 0 to m - 1 do
        if col_active.(c) then consider c
      done;
    if !best_r < 0 then raise Singular;
    let pr = !best_r and pc = !best_c in
    let piv = rval.(pr).(row_find pr pc) in
    (* Gather the pivot row (excluding the pivot itself), sorted. *)
    let un = ref 0 in
    for p = 0 to rlen.(pr) - 1 do
      if rcol.(pr).(p) <> pc then incr un
    done;
    let u_idx = Array.make !un 0 and u_val = Array.make !un 0.0 in
    let up = ref 0 in
    for p = 0 to rlen.(pr) - 1 do
      let cc = rcol.(pr).(p) in
      if cc <> pc then begin
        u_idx.(!up) <- cc;
        u_val.(!up) <- rval.(pr).(p);
        incr up
      end
    done;
    let perm = Array.init !un (fun i -> i) in
    Array.sort (fun a b -> compare u_idx.(a) u_idx.(b)) perm;
    let u_idx' = Array.map (fun i -> u_idx.(i)) perm in
    let u_val' = Array.map (fun i -> u_val.(i)) perm in
    (* Eliminate below the pivot, smallest target row first. *)
    let targets = Array.make (clen.(pc) - 1) 0 in
    let tp = ref 0 in
    for p = 0 to clen.(pc) - 1 do
      let i = crow.(pc).(p) in
      if i <> pr then begin
        targets.(!tp) <- i;
        incr tp
      end
    done;
    Array.sort compare targets;
    let l_idx = Array.make (Array.length targets) 0 in
    let l_val = Array.make (Array.length targets) 0.0 in
    Array.iteri
      (fun ti i ->
        let l = rval.(i).(row_find i pc) /. piv in
        l_idx.(ti) <- i;
        l_val.(ti) <- l;
        (* Scatter row i (minus the pivot column) into the accumulator. *)
        incr stamp;
        let st = !stamp in
        for p = 0 to rlen.(i) - 1 do
          let c = rcol.(i).(p) in
          if c <> pc then begin
            wv.(c) <- rval.(i).(p);
            wstamp.(c) <- st
          end
        done;
        (* Apply the pivot-row update, tracking fill-in and drops in the
           column index as membership flips. *)
        for p = 0 to Array.length u_idx' - 1 do
          let c = u_idx'.(p) in
          let had = wstamp.(c) = st in
          let cur = if had then wv.(c) else 0.0 in
          let nv = cur -. (l *. u_val'.(p)) in
          let has = Float.abs nv > drop_tol in
          wv.(c) <- nv;
          wstamp.(c) <- st;
          if had && not has then crow_remove c i
          else if (not had) && has then crow_push c i
        done;
        (* Gather the surviving entries back into row i.  The first pass
           compacts in place — the write index never overtakes the read
           index, so the old entries are still intact when read. *)
        incr stamp;
        let est = !stamp in
        let old_cols = rcol.(i) and old_len = rlen.(i) in
        rlen.(i) <- 0;
        for p = 0 to old_len - 1 do
          let c = old_cols.(p) in
          if c <> pc && estamp.(c) <> est then begin
            estamp.(c) <- est;
            if Float.abs wv.(c) > drop_tol then begin
              let w = rlen.(i) in
              rcol.(i).(w) <- c;
              rval.(i).(w) <- wv.(c);
              rlen.(i) <- w + 1
            end
          end
        done;
        for p = 0 to Array.length u_idx' - 1 do
          let c = u_idx'.(p) in
          if estamp.(c) <> est then begin
            estamp.(c) <- est;
            if Float.abs wv.(c) > drop_tol then row_push i c wv.(c)
          end
        done)
      targets;
    (* Retire the pivot row and column. *)
    for p = 0 to rlen.(pr) - 1 do
      let c = rcol.(pr).(p) in
      if c <> pc then crow_remove c pr
    done;
    clen.(pc) <- 0;
    unlink pc;
    col_active.(pc) <- false;
    nnz := !nnz + Array.length l_idx + Array.length u_idx' + 1;
    steps.(step_k) <-
      Some { pr; pc; l_idx; l_val; u_idx = u_idx'; u_val = u_val'; u_piv = piv }
  done;
  let steps = Array.map Option.get steps in
  (* Transpose CSR builds for the push-form solves. *)
  let ut_cnt = Array.make (m + 1) 0 in
  let lt_cnt = Array.make (m + 1) 0 in
  Array.iter
    (fun st ->
      Array.iter (fun c -> ut_cnt.(c + 1) <- ut_cnt.(c + 1) + 1) st.u_idx;
      Array.iter (fun i -> lt_cnt.(i + 1) <- lt_cnt.(i + 1) + 1) st.l_idx)
    steps;
  for k = 1 to m do
    ut_cnt.(k) <- ut_cnt.(k) + ut_cnt.(k - 1);
    lt_cnt.(k) <- lt_cnt.(k) + lt_cnt.(k - 1)
  done;
  let ut_ptr = Array.copy ut_cnt and lt_ptr = Array.copy lt_cnt in
  let ut_step = Array.make ut_cnt.(m) 0 in
  let ut_val = Array.make ut_cnt.(m) 0.0 in
  let lt_tgt = Array.make lt_cnt.(m) 0 in
  let lt_val = Array.make lt_cnt.(m) 0.0 in
  let unext = Array.copy ut_ptr and lnext = Array.copy lt_ptr in
  Array.iteri
    (fun k st ->
      Array.iteri
        (fun p c ->
          let q = unext.(c) in
          ut_step.(q) <- k;
          ut_val.(q) <- st.u_val.(p);
          unext.(c) <- q + 1)
        st.u_idx;
      Array.iteri
        (fun p i ->
          let q = lnext.(i) in
          lt_tgt.(q) <- st.pr;
          lt_val.(q) <- st.l_val.(p);
          lnext.(i) <- q + 1)
        st.l_idx)
    steps;
  let step_of_row = Array.make m 0 and step_of_slot = Array.make m 0 in
  (* The scratch is zero between solves and the marks stay below the
     generation counter, so both carry over to the new factors. *)
  let z, s, ux, heap, mark, gen, reach =
    match reuse with
    | Some r when r.m = m -> (r.z, r.s, r.ux, r.heap, r.mark, r.gen, r.reach)
    | _ ->
      ( Array.make m 0.0,
        Array.make m 0.0,
        Array.make m 0.0,
        Array.make m 0,
        Array.make m 0,
        0,
        Array.make m 0 )
  in
  Array.iteri
    (fun k st ->
      step_of_row.(st.pr) <- k;
      step_of_slot.(st.pc) <- k)
    steps;
  {
    m;
    steps;
    ut_ptr;
    ut_step;
    ut_val;
    lt_ptr;
    lt_tgt;
    lt_val;
    step_of_row;
    step_of_slot;
    z;
    s;
    ux;
    heap;
    hn = 0;
    mark;
    gen;
    reach;
    nnz = !nnz;
  }

let nnz t = t.nnz

(* ---------- solves ----------

   FTRAN solves B x = b:  (E_{m-1} ... E_0) B = U, so z = E b, then
   U x = z.  The L pass applies step k's eta only when z at its pivot
   row is nonzero, and the U pass pushes each resolved component through
   the transpose index, so both spend flops only where values are
   nonzero.  BTRAN solves B^T y = c the same way round: forward U^T by
   scattering pivot rows, then the transposed etas in reverse, push
   form.

   A pass need not visit every step either.  The L etas and the U^T
   scatters feed only later steps, the U and L^T pushes only earlier
   ones, so a heap that pops steps in the pass's own order (ascending
   or descending) and is fed from the right-hand side's nonzeros and
   each step's targets meets every step after all steps that can change
   it, and in the same order as a loop over all m steps.  Skipped steps
   hold zeros, which the loop would skip too: the flops and their order
   are the loop's, so the result is the loop's bit for bit.  A zero can
   come out with either sign, which no caller distinguishes. *)

(* A pass that has visited this many steps finishes with the loop over
   all remaining steps: a heap pop costs several times a loop step, so
   past a tenth of the steps (where Hall and McKinnon also stop
   exploiting hyper-sparsity) the loop is the cheaper way.  Where a pass
   switches never changes the result. *)
let dense_cutoff m = m / 10

let heap_push t key =
  let h = t.heap in
  let i = ref t.hn in
  t.hn <- t.hn + 1;
  while !i > 0 && h.((!i - 1) / 2) > key do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- key

let heap_pop t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.hn - 1 in
  t.hn <- n;
  if n > 0 then begin
    let key = h.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < key then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- key
  end;
  top

let new_pass t =
  t.gen <- t.gen + 1;
  t.hn <- 0

(* Queue step [k] once per pass, for an ascending or a descending pass. *)
let queue_up t k =
  if t.mark.(k) <> t.gen then begin
    t.mark.(k) <- t.gen;
    heap_push t k
  end

let queue_down t k =
  if t.mark.(k) <> t.gen then begin
    t.mark.(k) <- t.gen;
    heap_push t (t.m - 1 - k)
  end

(* One step of each pass.  With [~queue] the step also queues the steps
   it feeds. *)
let l_step t k ~queue =
  let z = t.z in
  let st = t.steps.(k) in
  let zr = z.(st.pr) in
  zr <> 0.0
  && begin
       for p = 0 to Array.length st.l_idx - 1 do
         let i = st.l_idx.(p) in
         z.(i) <- z.(i) -. (st.l_val.(p) *. zr);
         if queue then queue_up t t.step_of_row.(i)
       done;
       true
     end

let u_step t k ~x ~xidx n ~queue =
  let ux = t.ux in
  let acc = ux.(k) in
  ux.(k) <- 0.0;
  if acc = 0.0 then n
  else begin
    let st = t.steps.(k) in
    let xv = acc /. st.u_piv in
    x.(st.pc) <- xv;
    xidx.(n) <- st.pc;
    for p = t.ut_ptr.(st.pc) to t.ut_ptr.(st.pc + 1) - 1 do
      let j = t.ut_step.(p) in
      ux.(j) <- ux.(j) -. (t.ut_val.(p) *. xv);
      if queue then queue_down t j
    done;
    n + 1
  end

let ut_step t k ~queue =
  let s = t.s in
  let st = t.steps.(k) in
  let sv = s.(st.pc) in
  sv <> 0.0
  && begin
       let wk = sv /. st.u_piv in
       s.(st.pc) <- wk;
       for p = 0 to Array.length st.u_idx - 1 do
         let c = st.u_idx.(p) in
         s.(c) <- s.(c) -. (st.u_val.(p) *. wk);
         if queue then queue_up t t.step_of_slot.(c)
       done;
       true
     end

let lt_step t k ~y ~yidx n ~queue =
  let st = t.steps.(k) in
  let yv = y.(st.pr) in
  if yv = 0.0 then n
  else begin
    yidx.(n) <- st.pr;
    for p = t.lt_ptr.(st.pr) to t.lt_ptr.(st.pr + 1) - 1 do
      let i = t.lt_tgt.(p) in
      y.(i) <- y.(i) -. (t.lt_val.(p) *. yv);
      if queue then queue_down t t.step_of_row.(i)
    done;
    n + 1
  end

(* Run the first pass of a solve from the right-hand side listed in
   [idx.(0 .. n-1)], whose entries sit in the pass's own vector: [seed]
   maps an entry to its step, [step] runs one step and says whether it
   was nonzero, [clear] zeroes the vector at a step found zero.  Returns
   the step where the full loop must take over, or [m] when the heap
   finished the pass; the steps left nonzero are in [t.reach], their
   count is returned second. *)
let first_pass t ~limit ~idx ~n ~seed ~step ~clear =
  if n > limit then (0, 0)
  else begin
    new_pass t;
    for p = 0 to n - 1 do
      queue_up t (seed idx.(p))
    done;
    let nr = ref 0 and visited = ref 0 and from = ref t.m in
    while t.hn > 0 && !from = t.m do
      let k = heap_pop t in
      if !visited >= limit then from := k
      else begin
        incr visited;
        if step t k ~queue:true then begin
          t.reach.(!nr) <- k;
          incr nr
        end
        else clear t k
      end
    done;
    (!from, !nr)
  end

(* The full descending loop of a second pass from step [from] down;
   [step k n] runs step [k] with [n] outputs so far and returns the new
   count. *)
let loop_down ~from ~step n =
  let n = ref n in
  for k = from downto 0 do
    n := step k !n ~queue:false
  done;
  !n

(* The descending second pass from the steps queued in the heap; the
   full loop takes over once [limit] steps have been visited. *)
let second_pass t ~limit ~step =
  let n = ref 0 and visited = ref 0 and from = ref (-1) in
  while t.hn > 0 && !from < 0 do
    let k = t.m - 1 - heap_pop t in
    if !visited >= limit then from := k
    else begin
      incr visited;
      n := step k !n ~queue:true
    end
  done;
  loop_down ~from:!from ~step !n

let ftran_with t ~limit ~b ~bidx ~bn ~x ~xidx =
  let m = t.m and z = t.z and ux = t.ux in
  for p = 0 to bn - 1 do
    z.(bidx.(p)) <- b.(bidx.(p))
  done;
  let from, nr =
    first_pass t ~limit ~idx:bidx ~n:bn
      ~seed:(fun i -> t.step_of_row.(i))
      ~step:l_step
      ~clear:(fun t k -> z.(t.steps.(k).pr) <- 0.0)
  in
  let u_step k n ~queue = u_step t k ~x ~xidx n ~queue in
  if from < m then begin
    for k = from to m - 1 do
      ignore (l_step t k ~queue:false)
    done;
    for k = 0 to m - 1 do
      let pr = t.steps.(k).pr in
      ux.(k) <- z.(pr);
      z.(pr) <- 0.0
    done;
    loop_down ~from:(m - 1) ~step:u_step 0
  end
  else begin
    new_pass t;
    for q = 0 to nr - 1 do
      let k = t.reach.(q) in
      let pr = t.steps.(k).pr in
      ux.(k) <- z.(pr);
      z.(pr) <- 0.0;
      queue_down t k
    done;
    second_pass t ~limit ~step:u_step
  end

let btran_with t ~limit ~c ~cidx ~cn ~y ~yidx =
  let m = t.m and s = t.s in
  for p = 0 to cn - 1 do
    s.(cidx.(p)) <- c.(cidx.(p))
  done;
  let from, nr =
    first_pass t ~limit ~idx:cidx ~n:cn
      ~seed:(fun c -> t.step_of_slot.(c))
      ~step:ut_step
      ~clear:(fun t k -> s.(t.steps.(k).pc) <- 0.0)
  in
  let lt_step k n ~queue = lt_step t k ~y ~yidx n ~queue in
  if from < m then begin
    for k = from to m - 1 do
      ignore (ut_step t k ~queue:false)
    done;
    for k = 0 to m - 1 do
      let st = t.steps.(k) in
      y.(st.pr) <- s.(st.pc);
      s.(st.pc) <- 0.0
    done;
    loop_down ~from:(m - 1) ~step:lt_step 0
  end
  else begin
    new_pass t;
    for q = 0 to nr - 1 do
      let st = t.steps.(t.reach.(q)) in
      y.(st.pr) <- s.(st.pc);
      s.(st.pc) <- 0.0;
      queue_down t t.reach.(q)
    done;
    second_pass t ~limit ~step:lt_step
  end

let ftran t = ftran_with t ~limit:(dense_cutoff t.m)
let btran t = btran_with t ~limit:(dense_cutoff t.m)
let ftran_dense t = ftran_with t ~limit:(-1)
let btran_dense t = btran_with t ~limit:(-1)
