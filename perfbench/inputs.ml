(* The workloads' inputs, made from the run's seed. Each workload
   is one merged catalog (every relation under its own name) plus a set
   of query classes whose queries alias the relations back to the
   names the paper's setups use ("s1 as r"), so the same query text
   runs in process and over the wire. *)

module Config = Taqp_core.Config
module Ra = Taqp_relational.Ra
module Catalog = Taqp_storage.Catalog
module Paper_setup = Taqp_workload.Paper_setup
module Strategy = Taqp_timecontrol.Strategy
module Stopping = Taqp_timecontrol.Stopping

type cls = {
  label : string;
  query : Ra.t;  (** aliased over the merged catalog *)
  quota : float;  (** virtual seconds: the quota, or the job's slack *)
  config : Config.t;
  exact : int;  (** [Paper_setup.exact] of the original setup *)
  original : Paper_setup.t;
  priority : int;
  min_rhw : float option;
}

type t = {
  name : string;
  catalog : Catalog.t;
  classes : cls array;
  pick : int -> int;  (** class of the k-th request of the stream *)
  seed : int;
}

(* Deterministic 62-bit mix of (seed, k): the per-request sampling seed
   and the popularity draw depend only on the workload seed and the
   request's position, never on how many requests a run reached. *)
let mix seed k =
  let z = ref (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (k + 1)) 0x9E3779B97F4A7C15L)) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  Int64.to_int (Int64.shift_right_logical (Int64.logxor !z (Int64.shift_right_logical !z 31)) 2)

let request_seed w k = 1 + (mix w.seed k mod 1_000_000_007)

(* Rename every leaf [r] of a setup's query to [prefix ^ r] aliased as
   [r], adding the setup's relations to [catalog] under the new names. *)
let merge catalog ~prefix (s : Paper_setup.t) =
  List.iter
    (fun name -> Catalog.add catalog (prefix ^ name) (Catalog.find s.catalog name))
    (Catalog.names s.catalog);
  let rec go = function
    | Ra.Relation { name; alias } ->
        Ra.relation ~alias:(Option.value alias ~default:name) (prefix ^ name)
    | Ra.Select (p, e) -> Ra.Select (p, go e)
    | Ra.Project (a, e) -> Ra.Project (a, go e)
    | Ra.Join (p, a, b) -> Ra.Join (p, go a, go b)
    | Ra.Union (a, b) -> Ra.Union (go a, go b)
    | Ra.Difference (a, b) -> Ra.Difference (go a, go b)
    | Ra.Intersect (a, b) -> Ra.Intersect (go a, go b)
  in
  go s.query

let hard ?init_join ?(strategy = Strategy.default) ?(physical = Config.default.physical) () =
  {
    Config.default with
    Config.strategy;
    stopping = Stopping.Hard_deadline;
    trace = false;
    physical;
    domains = 1;
    initial_selectivities = { Config.no_initial_overrides with Config.join = init_join };
  }

let cls ?(priority = 1) ?min_rhw catalog ~prefix ~label ~quota ~config setup =
  let query = merge catalog ~prefix setup in
  { label; query; quota; config; exact = setup.Paper_setup.exact; original = setup;
    priority; min_rhw }

let d_betas = [| 0.0; 12.0; 24.0; 48.0; 72.0 |]

(* Section 5 of the paper: selections with 1,000 and 5,000 outputs and
   an intersection with 10,000 under a 10 s quota, a join with 70,000
   under 2.5 s, each at every d_beta, on 10,000 x 200 B tuples in
   1 KB blocks. Classes alternate round-robin so every run sees the
   same mix whatever its length. *)
let paper_mix ~seed =
  let catalog = Catalog.create () in
  let setup label prefix quota init_join s =
    let base = cls catalog ~prefix ~label ~quota ~config:(hard ()) s in
    Array.map
      (fun d_beta ->
        { base with
          label = Printf.sprintf "%s-b%g" label d_beta;
          config = hard ?init_join ~strategy:(Strategy.one_at_a_time ~d_beta ()) () })
      d_betas
  in
  let classes =
    Array.concat
      [
        setup "sel1k" "s1" 10.0 None (Paper_setup.selection ~output:1_000 ~seed:(seed + 1) ());
        setup "sel5k" "s5" 10.0 None (Paper_setup.selection ~output:5_000 ~seed:(seed + 2) ());
        setup "intersect" "i" 10.0 None (Paper_setup.intersection ~seed:(seed + 3) ());
        setup "join" "j" 2.5 (Some 0.01) (Paper_setup.join ~seed:(seed + 4) ());
      ]
  in
  (* 4 queries x 5 d_betas: consecutive requests change query first and
     d_beta second, so any stretch of the stream has the same mix *)
  let pick k = (k mod 4 * 5) + (k / 4 mod 5) in
  { name = "paper_mix"; catalog; classes; pick; seed }

(* Few large stages: the join and the three-way join on the paper
   layout under a generous quota, alternating the sort-merge and hash
   physical paths, on one domain. Two domains on a two-core shared host
   put the large stages, and so the latency tail, at the mercy of
   whatever else holds the second core; the traced run still times the
   same requests at two domains ([parallel.speedup_2d]). *)
let deep_join_quota = 75.0

let deep_join ~seed =
  let catalog = Catalog.create () in
  let join = Paper_setup.join ~seed:(seed + 1) () in
  let three = Paper_setup.three_way_join ~seed:(seed + 2) () in
  let mk label prefix setup physical =
    cls catalog ~prefix ~label ~quota:deep_join_quota
      ~config:(hard ~init_join:0.01 ~physical ())
      setup
  in
  let jq = mk "join-sort" "j" join Config.Sort_merge in
  let tq = mk "join3-sort" "t" three Config.Sort_merge in
  let classes =
    [|
      jq;
      tq;
      { jq with label = "join-hash"; config = { jq.config with Config.physical = Config.Hash } };
      { tq with label = "join3-hash"; config = { tq.config with Config.physical = Config.Hash } };
    |]
  in
  { name = "deep_join"; catalog; classes; pick = (fun k -> k mod 4); seed }

let make name ~seed =
  match name with
  | "paper_mix" -> paper_mix ~seed
  | "deep_join" -> deep_join ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

let names = [ "paper_mix"; "deep_join" ]

(* One job line of the wire protocol: arrival now, deadline after the
   class's slack, the request's own sampling seed. *)
let job_line w k =
  let c = w.classes.(w.pick k) in
  Printf.sprintf "0 | %.17g | %s | priority=%d,seed=%d,label=q%d%s" c.quota
    (Ra.to_string c.query) c.priority (request_seed w k) k
    (match c.min_rhw with None -> "" | Some r -> Printf.sprintf ",min_rhw=%g" r)

let write_csv w dir =
  List.iter
    (fun name ->
      Taqp_storage.Csv_io.save (Catalog.find w.catalog name)
        (Filename.concat dir (name ^ ".csv")))
    (Catalog.names w.catalog)
