(* The explorer: walk every leaf of the configuration universe, dedup
   through canonical keys, run the chaos engine on each representative,
   and record every oracle violation with the decision path that
   reaches it.

   Because the simulator's effect handlers use one-shot continuations,
   there is no mid-run state forking: the checker is a *stateless*
   bounded model checker — each state is a complete configuration, each
   transition a whole engine run. DFS streams the leaves in tree order
   with O(depth) memory; BFS materialises the leaves and sweeps them in
   fault-count layers (all fault-free runs first, then single-fault
   runs, ...), which finds a minimal-layer counterexample first at the
   cost of holding the frontier. [frontier_peak] reports the widest
   layer in both orders — for BFS that is literally the peak resident
   frontier.

   Engine runs skip the delivery trace ([E.run ~with_trace:false]); the
   runtime's counted engine runs every schedule, with the network hook
   installed when the schedule has a network-side fault. The
   monitor-soundness oracle needs the trace and is therefore out of the
   checker's scope (the sampled fuzzer keeps it); agreement, validity
   and the round bound are checked on every state. Stats are mirrored
   into the telemetry metrics registry under [check.*]. *)

module E = Bap_chaos.Fuzz.E
module Fuzz = Bap_chaos.Fuzz
module Schedule = Bap_chaos.Schedule
module Decision = Bap_sim.Decision
module Tel = Bap_telemetry.Telemetry

type order = Dfs | Bfs

type counterexample = {
  config : E.config;
  report : E.report;
  path : Decision.path;  (** Root-to-leaf branch indices in the universe tree. *)
}

type stats = {
  leaves : int;  (** Configurations enumerated. *)
  states : int;  (** Unique canonical states actually run. *)
  symmetry_hits : int;  (** Leaves deduplicated against an earlier state. *)
  frontier_peak : int;  (** Widest fault-count layer. *)
  violations : int;
}

type result = { stats : stats; counterexamples : counterexample list }

let pp_stats ppf s =
  Fmt.pf ppf
    "leaves=%d states=%d symmetry_hits=%d frontier_peak=%d violations=%d"
    s.leaves s.states s.symmetry_hits s.frontier_peak s.violations

let run ?(order = Dfs) ?(symmetry = true) ?(sabotage = false)
    ?(progress = fun ~leaves:_ ~states:_ ~violations:_ -> ()) params =
  let tree = Universe.configs params in
  let seen = Hashtbl.create 4096 in
  let layer_width = Hashtbl.create 8 in
  let frontier_peak = ref 0 in
  let leaves = ref 0 in
  let states = ref 0 in
  let symmetry_hits = ref 0 in
  let violations = ref 0 in
  let counterexamples = ref [] in
  let visit cfg ~path =
    incr leaves;
    Tel.Metrics.counter "check.leaves" 1;
    let layer = Schedule.length cfg.E.schedule in
    let width = 1 + Option.value ~default:0 (Hashtbl.find_opt layer_width layer) in
    Hashtbl.replace layer_width layer width;
    if width > !frontier_peak then frontier_peak := width;
    let key = Canon.key (if symmetry then Canon.canonicalize cfg else cfg) in
    if Hashtbl.mem seen key then begin
      (* The universe never produces two identical leaves, so a key
         collision is always a symmetry win. *)
      incr symmetry_hits;
      Tel.Metrics.counter "check.symmetry_hits" 1
    end
    else begin
      Hashtbl.add seen key ();
      incr states;
      Tel.Metrics.counter "check.states" 1;
      let report =
        E.run ~sabotage_validity:sabotage ~with_trace:false ~mutant:Fuzz.mutant cfg
      in
      if report.E.violations <> [] then begin
        incr violations;
        Tel.Metrics.counter "check.violations" 1;
        counterexamples := { config = cfg; report; path } :: !counterexamples
      end;
      progress ~leaves:!leaves ~states:!states ~violations:!violations
    end
  in
  (match order with
  | Dfs -> Decision.iter visit tree
  | Bfs ->
    let buckets = Hashtbl.create 8 in
    Decision.iter
      (fun cfg ~path ->
        let layer = Schedule.length cfg.E.schedule in
        let prev = Option.value ~default:[] (Hashtbl.find_opt buckets layer) in
        Hashtbl.replace buckets layer ((cfg, path) :: prev))
      tree;
    Hashtbl.fold (fun layer _ acc -> layer :: acc) buckets []
    |> List.sort compare
    |> List.iter (fun layer ->
           Hashtbl.find buckets layer
           |> List.rev
           |> List.iter (fun (cfg, path) -> visit cfg ~path)));
  let frontier_peak = !frontier_peak in
  Tel.Metrics.gauge_max "check.frontier_peak" frontier_peak;
  let stats =
    {
      leaves = !leaves;
      states = !states;
      symmetry_hits = !symmetry_hits;
      frontier_peak;
      violations = !violations;
    }
  in
  { stats; counterexamples = List.rev !counterexamples }
