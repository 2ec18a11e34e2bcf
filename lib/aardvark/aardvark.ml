(** The Aardvark baseline (Clement et al., NSDI 2009), as analysed in
    Section III-B of the RBFT paper: PBFT with regular view changes
    driven by a ratcheting throughput requirement, signed client
    requests, and full-request ordering. *)

module Policy = Policy
module Node = Node
module Client = Client
module Cluster = Cluster

(** Aardvark's policy times compressed for simulation: 1.2 s grace,
    500 ms view warm-up and a 120 ms post-view-change quiet period.
    The paper's 5 s grace would make every figure and chaos scenario
    run tens of simulated seconds; ratios are unaffected when the
    fault-free and the attacked runs share the compression. *)
let compressed_config ~f =
  {
    (Node.default_config ~f) with
    Node.policy =
      {
        (Policy.default_config ~n:((3 * f) + 1)) with
        Policy.grace = Dessim.Time.of_sec_f 1.2;
        view_warmup = Dessim.Time.ms 500;
      };
    post_vc_quiet = Dessim.Time.ms 120;
  }
