include Baseline.Client.Make (struct
  type msg = Node.msg

  let request desc = Node.Request { desc; sig_valid = true }

  let request_size ~n (desc : Pbftcore.Types.request_desc) =
    16 + desc.op_size + Bftcrypto.Keys.signature_size + (n * Bftcrypto.Keys.mac_tag_size)

  let targets = Baseline.Client.All

  let reply = function
    | Node.Reply { id; result; node } -> Some (id, node, result)
    | Node.Request _ | Node.Order _ -> None
end)
