(* What one workload run reports back to main.ml. *)

type t = {
  attempted : int;  (** operations whose output was checked *)
  failed : int;  (** operations whose output was wrong *)
  e2e : (string * float) list;
      (** every end-to-end metric except peak_rss_mb, which main reads *)
  layer : (string * float) list;
      (** per-layer metrics backed by this workload's own spans *)
  primary_s : float;
      (** the workload's headline time per unit, compared between an
          untraced and a traced half to give the tracing overhead *)
}
