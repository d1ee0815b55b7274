(* Scale probe: run one wrapper instance at large n through the
   scalable core and report wall-clock + accounting. CI's scale-smoke
   job runs this at n=2000 under a timeout; developers use it to
   measure the n-scaling curve locally. Exits non-zero if the run
   fails to decide or to agree, so CI fails loud. *)

let run n f json =
  let r = Scale_probe.run ~n ~f () in
  if json then
    Printf.printf
      "{\"n\": %d, \"f\": %d, \"rounds\": %d, \"msgs\": %d, \"bits\": %d, \
       \"agreement\": %b, \"decided\": %b, \"wall_ms\": %.1f}\n"
      r.Scale_probe.n r.f r.rounds r.msgs r.bits r.agreement r.decided r.wall_ms
  else print_endline (Scale_probe.pp_line r);
  if r.Scale_probe.agreement && r.decided then 0
  else (
    Printf.eprintf "bap_scale: FAILED (agreement=%b decided=%b)\n" r.agreement
      r.decided;
    1)

open Cmdliner

let n_arg =
  Arg.(value & opt int 1000 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let f_arg =
  Arg.(
    value & opt int 0
    & info [ "f" ] ~docv:"F"
        ~doc:"Number of silent faulty processes (clamped to (n-1)/3).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as one JSON object.")

let cmd =
  let doc = "time one large-n wrapper instance through the scalable core" in
  let info = Cmd.info "bap_scale" ~doc in
  Cmd.v info Term.(const run $ n_arg $ f_arg $ json_arg)

let () = exit (Cmd.eval' cmd)
