type initial_selectivities = {
  select : float option;
  join : float option;
  intersect : float option;
  project : float option;
}

type projection_estimator = Goodman_unbiased | Goodman_first_order | Scale_up | Chao

type variance_estimator = Srs_approximation | Cluster_exact

type physical_operator = Sort_merge | Hash

type t = {
  strategy : Taqp_timecontrol.Strategy.t;
  stopping : Taqp_timecontrol.Stopping.t;
  plan : Taqp_sampling.Plan.t;
  confidence_level : float;
  bisect_eps_frac : float;
  adaptive_cost : bool;
  initial_cost_scale : float;
  initial_selectivities : initial_selectivities;
  selectivity_oracle : (Taqp_relational.Ra.t -> float) option;
  projection_estimator : projection_estimator;
  variance_estimator : variance_estimator;
  physical : physical_operator;
  max_bisect_iterations : int;
  trace : bool;
  domains : int;
}

let no_initial_overrides =
  { select = None; join = None; intersect = None; project = None }

(* TAQP_DOMAINS: an env override so a whole test run can be re-executed
   under a different domain count without touching call sites. The
   test suites read TAQP_PHYSICAL themselves; the library never does.
   Anything unparsable or < 1 falls back to 1. *)
let domains_from_env () =
  match Sys.getenv_opt "TAQP_DOMAINS" with
  | None | Some "" -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | _ -> 1)

let default =
  {
    strategy = Taqp_timecontrol.Strategy.default;
    stopping = Taqp_timecontrol.Stopping.hard;
    plan = Taqp_sampling.Plan.default;
    confidence_level = 0.95;
    bisect_eps_frac = 0.02;
    adaptive_cost = true;
    initial_cost_scale = 1.0;
    initial_selectivities = no_initial_overrides;
    selectivity_oracle = None;
    projection_estimator = Chao;
    variance_estimator = Srs_approximation;
    physical = Sort_merge;
    max_bisect_iterations = 40;
    trace = true;
    domains = domains_from_env ();
  }

let check_sel name = function
  | None -> ()
  | Some s ->
      if s <= 0.0 || s > 1.0 then
        invalid_arg ("Config: initial " ^ name ^ " selectivity outside (0,1]")

let validate t =
  if t.confidence_level <= 0.0 || t.confidence_level >= 1.0 then
    invalid_arg "Config: confidence_level outside (0,1)";
  if t.bisect_eps_frac <= 0.0 || t.bisect_eps_frac >= 1.0 then
    invalid_arg "Config: bisect_eps_frac outside (0,1)";
  if t.initial_cost_scale <= 0.0 then
    invalid_arg "Config: initial_cost_scale <= 0";
  if t.max_bisect_iterations < 1 then
    invalid_arg "Config: max_bisect_iterations < 1";
  if t.domains < 1 then invalid_arg "Config: domains < 1";
  check_sel "select" t.initial_selectivities.select;
  check_sel "join" t.initial_selectivities.join;
  check_sel "intersect" t.initial_selectivities.intersect;
  check_sel "project" t.initial_selectivities.project
