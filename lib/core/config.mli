(** Run configuration for the time-constrained executor — the
    implementation-decision table of Figure 3.2 in one record. *)

(** First-stage selectivity assumptions, overriding Figure 3.3's
    defaults (all [None] = maximum selectivity 1 for Select, Project
    and Join; 1/max(|r1|,|r2|) for Intersect). The paper's join
    experiment sets [join = Some 0.1]. *)
type initial_selectivities = {
  select : float option;
  join : float option;
  intersect : float option;
  project : float option;
}

type projection_estimator =
  | Goodman_unbiased  (** the exact alternating series, clamped *)
  | Goodman_first_order  (** the stabilized truncation *)
  | Scale_up  (** naive d * N/n, a baseline *)
  | Chao
      (** Chao's d + f1(f1-1)/(2(f2+1)) — the default: stable where the
          Goodman series is not (see the projection-estimator
          ablation) *)

type variance_estimator =
  | Srs_approximation
      (** the paper's choice: treat the evaluated points as a simple
          random sample — cheap, optimistic when blocks are internally
          correlated *)
  | Cluster_exact
      (** track per-disk-block output counts and use the exact cluster
          variance (Theorem 6 of [HoOT 88]); charged for the extra
          sorting/bookkeeping the paper deemed "too expensive".
          Implemented for single-relation Select chains (the paper's
          selection experiment); other shapes fall back to the
          approximation. Also feeds the measured design effect back
          into the sel+ inflation. *)

(** Physical evaluation path for equi-key Join and Intersect, fixed for
    a query's whole life. Both paths produce the same output multiset
    per stage, so the estimate, variance and confidence interval are
    bit-identical; only the evaluation cost differs. *)
type physical_operator =
  | Sort_merge
      (** the paper's Figure 4.4/4.5 plan: sort each stage's delta into
          a retained file and re-merge one sorted-file pairing per
          (new, old) file pair — O(cumulative) re-reads per stage *)
  | Hash
      (** retained per-side hash indexes: insert each delta once, probe
          only with the opposite side's delta (symmetric-hash order) —
          O(delta) per stage, no re-reading of old sample units *)

type t = {
  strategy : Taqp_timecontrol.Strategy.t;
  stopping : Taqp_timecontrol.Stopping.t;
  plan : Taqp_sampling.Plan.t;
  confidence_level : float;
  bisect_eps_frac : float;
      (** Sample-Size-Determine tolerance as a fraction of the stage
          budget *)
  adaptive_cost : bool;  (** fit cost coefficients at run time *)
  initial_cost_scale : float;
      (** multiplier on the designer initial coefficients (misfit
          experiments) *)
  initial_selectivities : initial_selectivities;
  selectivity_oracle : (Taqp_relational.Ra.t -> float) option;
      (** Figure 3.2's "prestored" alternative to run-time estimation:
          when set, each operator's selectivity record is pre-seeded
          with the oracle's value for that operator's sub-expression
          (selectivity of the operator w.r.t. its input point space),
          so the time-control never has to learn it. The paper rejects
          this for general use — maintaining stored selectivities for
          every attribute/formula combination is unrealistic — but it
          is the right baseline for the strategy ablations. *)
  projection_estimator : projection_estimator;
  variance_estimator : variance_estimator;
  physical : physical_operator;
  max_bisect_iterations : int;
  trace : bool;  (** retain per-stage details in the report *)
  domains : int;
      (** Worker domains for per-stage sampling compute ([>= 1]). The
          engine's observable output — estimates, CIs, virtual costs,
          traces, ledgers — is bit-identical at every value; only wall
          time changes (see docs/PARALLELISM.md). [default] reads the
          [TAQP_DOMAINS] env var (unset/invalid = 1), so a whole test
          run can be repeated at another domain count. The test suites
          read [TAQP_PHYSICAL] themselves; the library never does. *)
}

val default : t
(** One-at-a-Time strategy at ~5% per-operator risk, hard deadline,
    cluster sampling with full fulfillment, 95% confidence, adaptive
    cost formulas, Figure 3.3 initial selectivities, Chao projection
    estimator. *)

val no_initial_overrides : initial_selectivities

val validate : t -> unit
(** @raise Invalid_argument on out-of-range fields. *)
