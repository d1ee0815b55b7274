(* Rendering a lint run: compiler-style human lines (file:line:col so
   editors jump to the site) and a machine-readable --json form. Both
   are emitted in {!Finding.compare_finding} order, so output is a pure
   function of the findings. *)

module Json = Bap_telemetry.Json

let pp_human ppf (d : Baseline.diff) =
  List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) d.Baseline.fresh;
  List.iter
    (fun (e : Baseline.entry) ->
      Fmt.pf ppf "stale baseline entry: %s:%d [%s] no longer fires@." e.Baseline.file
        e.Baseline.line e.Baseline.rule_id)
    d.Baseline.stale;
  let verdict =
    match d.Baseline.fresh with
    | [] -> "ok"
    | fresh -> Printf.sprintf "%d new finding(s)" (List.length fresh)
  in
  Fmt.pf ppf "bap_lint: %s, %d grandfathered, %d stale baseline entr(ies)@."
    verdict d.Baseline.grandfathered
    (List.length d.Baseline.stale)

let json_of_finding (f : Finding.t) =
  Printf.sprintf
    "    {\"rule\": \"%s\", \"severity\": \"%s\", \"file\": \"%s\", \"line\": %d, \
     \"col\": %d, \"message\": \"%s\"}"
    (Json.escape f.Finding.rule_id)
    (Finding.severity_to_string (Finding.severity_of f))
    (Json.escape f.Finding.file) f.Finding.line f.Finding.col
    (Json.escape f.Finding.message)

(* The --json document: new findings only (the gate's subject), plus
   counters mirroring the human summary. *)
let to_json (d : Baseline.diff) =
  Printf.sprintf
    "{\n\
    \  \"version\": 1,\n\
    \  \"new\": [\n\
     %s\n\
    \  ],\n\
    \  \"grandfathered\": %d,\n\
    \  \"stale\": %d\n\
     }\n"
    (String.concat ",\n" (List.map json_of_finding d.Baseline.fresh))
    d.Baseline.grandfathered
    (List.length d.Baseline.stale)
