open Aring_ring

let ms n = n * 1_000_000

(* Fast membership timeouts: scenario runs are short, and partition
   merges must complete well inside the drain budget. *)
let snappy_params () =
  let p = Params.accelerated () in
  {
    p with
    Params.token_loss_ns = ms 50;
    token_retransmit_ns = ms 10;
    join_retransmit_ns = ms 20;
    consensus_timeout_ns = ms 100;
    merge_probe_ns = ms 80;
  }
