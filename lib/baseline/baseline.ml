(** The code the baselines (Aardvark, Spinning, Prime) share: one
    open-loop client and one cluster assembly, instantiated per
    protocol with the few constants that differ. *)

module Client = Client
module Cluster = Cluster

(** A baseline as callers drive it: its node, client and cluster.
    Each baseline library matches this signature, so a harness can
    take [(module Aardvark : Baseline.S)] instead of repeating itself
    once per protocol. *)
module type S = sig
  module Node : Cluster.NODE
  module Client : Client.S with type msg = Node.msg

  module Cluster :
    Cluster.S
      with type msg = Node.msg
       and type node = Node.t
       and type client = Client.t
       and type config = Node.config
end
