type t = {
  metrics : Metrics.t option;
  spans : Span.t option;
  flight : Flight.t option;
  profile : Profile.t option;
  trace : Trace.sink list;
  mint_base : int;
  mutable minted : int;
}

let create ?metrics ?spans ?flight ?profile ?(trace = []) ?(mint_base = 0) () =
  { metrics; spans; flight; profile; trace; mint_base; minted = 0 }

(* A plain per-world counter: no randomness and no sharing, so traced and
   untraced runs see identical protocol state and shard worlds mint
   without races. *)
let mint t =
  t.minted <- t.minted + 1;
  t.mint_base + t.minted

let with_metrics t f = Option.iter f t.metrics
