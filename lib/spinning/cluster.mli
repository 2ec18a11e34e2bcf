(** Assemble a Spinning deployment. *)

include
  Baseline.Cluster.S
    with type msg = Node.msg
     and type node = Node.t
     and type client = Client.t
     and type config = Node.config
