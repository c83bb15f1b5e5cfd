(** Solver robustness chain: revised simplex, then exact fallback.

    Every model runs through the same two rungs. {!Revised_simplex} goes
    first — sparse pricing, factorized basis, and the engine that can
    import/export warm-start bases. If it stalls or returns non-finite
    numbers (degraded or near-degenerate platforms from the resilience
    subsystem produce such LPs), the {e same} model is re-solved on
    {!Simplex_exact}: every [Lp_model] coefficient is a float, hence a
    dyadic rational, so the exact re-solve is faithful to the model as
    stated. The exact engine stays the cross-check oracle in tests.

    Both engines report duals: exact duals are converted with
    {!Rat.to_float}, so cut- and column-generation loops can price after
    a fallback. The [`Exact] tag still tells them the float engine had
    trouble, which the column-generation loops use to stop early rather
    than iterate on a shaky model.

    Observability: every solve runs inside an [lp.solve] trace span
    tagged with the model size, the engine that won ([revised]/[exact])
    and the final status. Falls from revised to exact count under
    [solver_chain.fallbacks]; warm-start successes under [lp.warm.hits].
    Per-engine solve and pivot totals live in {!Lp_counters} (a typed
    view over the metrics registry). *)

(** An optimal solution, whichever engine produced it. *)
type solution = {
  values : float array;  (** one value per structural variable *)
  objective : float;
  row_duals : float array;
      (** shadow price of each constraint, in the order the rows were added
          ([d objective / d rhs]); valid as-is for rows with non-negative
          right-hand sides (rows normalized by negation get a flipped
          sign). Used by the cut- and column-generation loops. *)
  pivots : int;
      (** pivot count of this solve. Per-solve and never accumulated: the
          engines keep no state across calls, so concurrent solves on
          separate domains are independent. *)
}

type status =
  | Optimal of solution * [ `Revised | `Exact ]
      (** which engine produced the accepted solution *)
  | Infeasible
  | Unbounded

(** [solve_warm ?max_iter ?warm model] runs the chain, seeding the
    revised engine with [warm] (a basis exported from a related solve —
    see {!Revised_simplex.warm}). Returns the status plus the optimal
    basis when the revised engine won, for the caller to thread into its
    next solve. A useless warm basis costs a cold restart inside the
    revised engine, never a different verdict. [max_iter] is forwarded
    to the revised engine; the exact fallback runs to completion. *)
val solve_warm :
  ?max_iter:int ->
  ?warm:Revised_simplex.warm ->
  Lp_model.t ->
  status * Revised_simplex.warm option

(** [solve_with_fallback ?max_iter model] is [solve_warm] without basis
    plumbing: cold solve, basis dropped. *)
val solve_with_fallback : ?max_iter:int -> Lp_model.t -> status

(** [solve_exact model] solves the model directly on {!Simplex_exact}
    (coefficients converted exactly); exposed for tests and cross-checks. *)
val solve_exact : Lp_model.t -> status
