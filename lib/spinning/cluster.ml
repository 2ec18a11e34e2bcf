include Baseline.Cluster.Make (struct
  module Node = Node
  module Client = Client

  let f (cfg : Node.config) = cfg.f

  (* Spinning uses UDP multicast between clients and replicas. *)
  let transport = Bftnet.Network.Udp
  let state_transferred _ = false
end)
