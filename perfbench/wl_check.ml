(* Workload check-n4: the bounded model checker, exhaustive over the
   unauth, es and pk families at n=4, t=1, B=1 and the default fault
   horizon. One sweep explores the three universes in turn; the counts
   each must reach are pinned, and any violation is a failure. The
   universe is exhaustive, so this workload does not depend on --seed. *)

module E = Bap_chaos.Fuzz.E
module Explore = Bap_checklib.Explore
module Universe = Bap_checklib.Universe
module Decision = Bap_sim.Decision
module Space = Bap_chaos.Space

(* (family, horizon, leaves, states, symmetry hits) *)
let full =
  [
    (E.Unauth, 4, 61_008, 61_008, 0);
    (E.Es_baseline, 4, 4_688, 4_436, 252);
    (E.Pk_baseline, 4, 4_688, 4_436, 252);
  ]

let tiny = [ (E.Es_baseline, 1, 1_424, 1_340, 84); (E.Pk_baseline, 1, 1_424, 1_340, 84) ]

let params (protocol, horizon, _, _, _) =
  let p = Universe.default_params ~protocol ~n:4 ~t:1 in
  { p with Universe.bounds = { p.Universe.bounds with Space.horizon } }

(* Set-up: build each universe and count its leaves against the pin,
   before anything is explored. *)
let setup families =
  List.for_all
    (fun ((_, _, leaves, _, _) as fam) -> Decision.count (Universe.configs (params fam)) = leaves)
    families

let run ~tiny_size ~budget_s ~corrupt =
  let families = if tiny_size then tiny else full in
  let cal = Bcore.Cal.start () in
  let setups =
    List.init 3 (fun _ ->
        let r = Bcore.span "setup.universe" (fun () -> setup families) in
        Bcore.Cal.tick cal;
        r)
  in
  let acc = Tel_an.create () in
  let attempted = ref 0 and failed = ref 0 in
  if not (List.for_all fst setups) then begin
    incr failed;
    prerr_endline "perfbench: check universe size differs from the pinned leaf count"
  end;
  (* (states, leaves, symmetry hits) of the last sweep: exact fingerprints *)
  let counts = ref (0, 0, 0) in
  let sweeps = ref [] and rates = ref [] in
  let stop = Bcore.now_s () +. budget_s in
  while !sweeps = [] || Bcore.now_s () < stop do
    (* A sweep's time is the sum of its explores; the calibration is
       taken between them. *)
    let totals, _ =
      Bcore.span "sweep" (fun () ->
          List.fold_left
            (fun (st, lv, sh, d) ((protocol, _, leaves, states, hits) as fam) ->
              let r, t =
                Tel_an.unit_ acc ("explore." ^ E.protocol_name protocol) (fun () ->
                    Explore.run (params fam))
              in
              Bcore.Cal.tick cal;
              let d = d +. t in
              let s = r.Explore.stats in
              incr attempted;
              let states = if corrupt then states + 1 else states in
              if s.Explore.violations <> 0 || s.Explore.leaves <> leaves
                 || s.Explore.states <> states || s.Explore.symmetry_hits <> hits
              then begin
                incr failed;
                if !failed <= 3 then
                  Format.eprintf "perfbench: check %s: %a (pinned states=%d hits=%d)@."
                    (E.protocol_name protocol) Explore.pp_stats s states hits
              end;
              (st + s.Explore.states, lv + s.Explore.leaves, sh + s.Explore.symmetry_hits, d))
            (0, 0, 0, 0.) families)
    in
    let states, leaves, hits, d = totals in
    counts := (states, leaves, hits);
    sweeps := d :: !sweeps;
    rates := (float_of_int states /. d) :: !rates
  done;
  let states, leaves, hits = !counts in
  let k = Bcore.Cal.factor cal in
  let sweeps = List.map (fun d -> d *. k) !sweeps in
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("throughput_per_s", Bcore.median !rates /. k);
        ("latency_p50_ms", Bcore.median sweeps *. 1e3);
        ("setup_s", Bcore.median (List.map snd setups) *. k);
      ];
    layer =
      Tel_an.metrics acc
      @ [
          ("check.states", float_of_int states);
          ("check.leaves", float_of_int leaves);
          ("check.symmetry_hits", float_of_int hits);
        ];
    primary_s = Bcore.median sweeps;
  }
