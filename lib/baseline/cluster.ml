(** Assemble a baseline deployment: 3f+1 nodes and the open-loop
    clients on one simulated network, plus the measurements every
    baseline reports (progress at the most advanced node, agreement
    among correct nodes).

    Nodes are created first, then clients, so each client's random
    stream is drawn from the engine in the same order for every
    protocol. *)

open Dessim

(** What the cluster needs of a protocol's replica node. *)
module type NODE = sig
  type t
  type msg
  type config

  val create :
    Engine.t -> msg Bftnet.Network.t -> config -> id:int -> service:Bftapp.Service.t -> t

  val start : t -> unit
  val id : t -> int
  val executed_count : t -> int
  val executed_counter : t -> Bftmetrics.Throughput.t
  val execution_digest : t -> string
  val set_clock_factor : t -> float -> unit
  val set_cpu_factor : t -> float -> unit
end

module type PROTOCOL = sig
  module Node : NODE
  module Client : Client.S with type msg = Node.msg

  val f : Node.config -> int
  val transport : Bftnet.Network.transport

  val state_transferred : Node.t -> bool
  (** A node that adopted a checkpoint by state transfer executes a
      shorter log, so [agreement_ok] leaves it out (see
      [Rbft.Cluster.agreement_ok]). Only Aardvark transfers state. *)
end

module type S = sig
  type t
  type msg
  type node
  type client
  type config

  val create :
    ?seed:int64 ->
    ?clients:int ->
    ?payload_size:int ->
    ?service:(unit -> Bftapp.Service.t) ->
    config ->
    t

  val engine : t -> Engine.t
  val network : t -> msg Bftnet.Network.t
  val node : t -> int -> node
  val nodes : t -> node array
  val client : t -> int -> client
  val clients : t -> client array
  val run_for : t -> Time.t -> unit

  val total_executed : t -> int
  (** Requests executed at the most advanced node: a Byzantine or
      lagging node must not distort progress readings. *)

  val throughput_between : t -> Time.t -> Time.t -> float
  val agreement_ok : t -> faulty:int list -> bool
end

module Make (P : PROTOCOL) :
  S
    with type msg = P.Node.msg
     and type node = P.Node.t
     and type client = P.Client.t
     and type config = P.Node.config = struct
  module Node = P.Node
  module Client = P.Client

  type msg = Node.msg
  type node = Node.t
  type client = Client.t
  type config = Node.config

  type t = {
    engine : Engine.t;
    net : msg Bftnet.Network.t;
    nodes : node array;
    clients : client array;
  }

  let create ?(seed = 42L) ?(clients = 0) ?(payload_size = 8)
      ?(service = fun () -> Bftapp.Null_service.create ()) cfg =
    let engine = Engine.create ~seed () in
    let f = P.f cfg in
    let n = (3 * f) + 1 in
    let net =
      Bftnet.Network.create engine
        { (Bftnet.Network.default_config ~nodes:n) with Bftnet.Network.transport = P.transport }
    in
    let nodes =
      Array.init n (fun id -> Node.create engine net cfg ~id ~service:(service ()))
    in
    let clients =
      Array.init clients (fun id -> Client.create engine net ~f ~id ~payload_size ())
    in
    Array.iter Node.start nodes;
    { engine; net; nodes; clients }

  let engine t = t.engine
  let network t = t.net
  let node t i = t.nodes.(i)
  let nodes t = t.nodes
  let client t i = t.clients.(i)
  let clients t = t.clients

  let run_for t d =
    let target = Time.add (Engine.now t.engine) d in
    Engine.run ~until:target t.engine

  let most_advanced t =
    Array.fold_left
      (fun best node ->
        if Node.executed_count node > Node.executed_count best then node else best)
      t.nodes.(0) t.nodes

  let total_executed t = Node.executed_count (most_advanced t)

  let throughput_between t start stop =
    Bftmetrics.Throughput.rate_between
      (Node.executed_counter (most_advanced t))
      start stop

  let agreement_ok t ~faulty =
    let correct =
      Array.to_list t.nodes
      |> List.filter (fun n ->
             (not (List.mem (Node.id n) faulty)) && not (P.state_transferred n))
    in
    match correct with
    | [] -> true
    | first :: rest ->
      List.for_all
        (fun n ->
          Node.executed_count n = Node.executed_count first
          && String.equal (Node.execution_digest n) (Node.execution_digest first))
        rest
end
