include Baseline.Cluster.Make (struct
  module Node = Node
  module Client = Client

  let f (cfg : Node.config) = cfg.f
  let transport = Bftnet.Network.Tcp
  let state_transferred n = Pbftcore.Replica.state_transfers (Node.replica n) > 0
end)
