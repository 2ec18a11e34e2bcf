include Baseline.Client.Make (struct
  type msg = Node.msg

  let request desc = Node.Request { desc; sig_valid = true }

  let request_size ~n:_ (desc : Pbftcore.Types.request_desc) =
    16 + desc.op_size + Bftcrypto.Keys.signature_size

  let targets = Baseline.Client.Rotate

  let reply = function
    | Node.Reply { id; result; node } -> Some (id, node, result)
    | Node.Request _ | Node.Po_request _ | Node.Pre_prepare _ | Node.Prepare _
    | Node.Commit _ | Node.Ping _ | Node.Pong _ | Node.Suspect _ ->
      None
end)

type behaviour = Baseline.Client.behaviour = { mutable heavy : bool }
