(** Sparse LU factorization of a simplex basis.

    Gaussian elimination in elimination form: at each step a pivot is
    chosen by a Markowitz-style rule — among the sparsest active columns,
    the entry minimizing [(row_count - 1) * (col_count - 1)] subject to a
    threshold partial-pivoting test (|entry| >= tau * max |entry in
    column|, tau = 0.1) — and the multipliers are recorded as an eta
    sequence (the L factor) while the pivot rows form the U factor.

    Solves are the standard pair used by the revised simplex:
    FTRAN [B x = b] (apply L etas forward, back-substitute U) and BTRAN
    [B^T y = c] (forward-substitute U^T by scattering pivot rows, apply
    L^T etas in reverse). *)

type t

exception Singular
(** Raised by {!factor} when some elimination step finds no pivot above
    the absolute tolerance — the basis matrix is (numerically) rank
    deficient. *)

val factor : ?reuse:t -> m:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [factor ~m col] factors the [m x m] basis whose column for basis slot
    [k] is enumerated by [col k f] (calling [f row value] per nonzero).
    Column slots index the caller's basis array; rows are constraint-row
    indices.  [?reuse] hands over the solve scratch of an earlier
    factorization of the same [m], which must not be solved with again:
    a caller that refactors the same basis size over and over then does
    not reallocate it each time. *)

val ftran :
  t ->
  b:float array ->
  bidx:int array ->
  bn:int ->
  x:float array ->
  xidx:int array ->
  int
(** Solve [B x = b] for a sparse [b]: only the rows listed in
    [bidx.(0 .. bn-1)] (each once) are read from [b] (row space, left
    untouched), every other row counts as zero.  [x] (slot space) must be
    zero on entry; on return it holds the solution, and the returned
    count [n] lists in [xidx.(0 .. n-1)] every slot where [x] is nonzero,
    each once, in no particular order.

    The work tracks the steps of the factors that the right-hand side
    reaches, not [m]: the solve follows the factor's own indices from
    [b]'s nonzeros, in step order.  Past a fixed share of the steps it
    finishes with the full loop over them; both paths do the same flops
    in the same order, so the result is the same bit for bit (a zero may
    carry either sign). *)

val btran :
  t ->
  c:float array ->
  cidx:int array ->
  cn:int ->
  y:float array ->
  yidx:int array ->
  int
(** Solve [B^T y = c] for a sparse [c]: [c] (slot space, left untouched)
    is read at the slots listed in [cidx.(0 .. cn-1)] only, [y] (row
    space) must be zero on entry, and the returned count lists the rows
    where [y] is nonzero in [yidx], as for {!ftran}. *)

(** {2 Test entry points}

    The full loops over all [m] steps that {!ftran} and {!btran} fall
    back to past their density cutoff, run from the first step.  Same
    contract and same result as the sparse solves; they exist so tests
    can check that, and no solve calls them. *)

val ftran_dense :
  t ->
  b:float array ->
  bidx:int array ->
  bn:int ->
  x:float array ->
  xidx:int array ->
  int

val btran_dense :
  t ->
  c:float array ->
  cidx:int array ->
  cn:int ->
  y:float array ->
  yidx:int array ->
  int

val nnz : t -> int
(** Stored nonzeros in L + U, a fill-in observability hook. *)
