(** The open-loop client shared by the baselines (Aardvark, Spinning,
    Prime).

    A client submits requests at a Poisson rate, keeps one pending
    entry per request and accepts a result on f+1 matching replies from
    distinct replicas. What differs between protocols (the request
    message, its wire size, which replicas receive it and how a reply
    is read) is a constant of the {!PROTOCOL} argument. *)

open Dessim
open Bftcrypto
open Bftnet
open Pbftcore.Types

type targets =
  | All  (** broadcast every request to all 3f+1 replicas *)
  | Rotate  (** request [rid] of client [id] goes to replica [(id + rid) mod n] *)

module type PROTOCOL = sig
  type msg

  val request : request_desc -> msg

  val request_size : n:int -> request_desc -> int
  (** Wire size of a request in a deployment of [n] replicas. *)

  val targets : targets

  val reply : msg -> (request_id * int * string) option
  (** [Some (id, node, result)] when the message is a reply. *)
end

module type S = sig
  type msg
  type t

  val create :
    Engine.t -> msg Network.t -> f:int -> id:int -> ?payload_size:int -> unit -> t
  (** Draws the client's own random stream from the engine. *)

  val id : t -> int
  val set_rate : t -> float -> unit
  val send_one : t -> unit
  val sent : t -> int
  val completed : t -> int
  val latencies : t -> Bftmetrics.Hist.t
end

type behaviour = { mutable heavy : bool }

module Make (P : PROTOCOL) : sig
  include S with type msg = P.msg

  val behaviour : t -> behaviour
  (** A heavy client flags its requests [flagged_heavy]; only Prime
      exposes this (the colluding client of the Figure 1 attack). *)
end = struct
  type msg = P.msg

  type pending = {
    sent_at : Time.t;
    span : int;  (* root span id of the traced request; -1 if unsampled *)
    mutable replies : (int * string) list;
    mutable done_ : bool;
  }

  type t = {
    engine : Engine.t;
    net : msg Network.t;
    f : int;
    id : int;
    payload_size : int;
    mutable rid : int;
    mutable rate : float;
    mutable rate_epoch : int;
    pending : pending Request_id_table.t;
    mutable sent : int;
    mutable completed : int;
    latencies : Bftmetrics.Hist.t;
    rng : Rng.t;
    behaviour : behaviour;
  }

  let id t = t.id
  let sent t = t.sent
  let completed t = t.completed
  let latencies t = t.latencies
  let behaviour t = t.behaviour

  let on_reply t (id : request_id) ~node ~result =
    match Request_id_table.find_opt t.pending id with
    | None -> ()
    | Some p when p.done_ -> ()
    | Some p ->
      if not (List.mem_assoc node p.replies) then begin
        p.replies <- (node, result) :: p.replies;
        let matching =
          List.length (List.filter (fun (_, r) -> String.equal r result) p.replies)
        in
        if matching >= t.f + 1 then begin
          p.done_ <- true;
          t.completed <- t.completed + 1;
          let now = Engine.now t.engine in
          Bftmetrics.Hist.add t.latencies (Time.to_sec_f (Time.sub now p.sent_at));
          Bftspan.Tracer.finish p.span ~t1:now;
          Request_id_table.remove t.pending id
        end
      end

  let create engine net ~f ~id ?(payload_size = 8) () =
    let t =
      {
        engine;
        net;
        f;
        id;
        payload_size;
        rid = 0;
        rate = 0.0;
        rate_epoch = 0;
        pending = Request_id_table.create 256;
        sent = 0;
        completed = 0;
        latencies = Bftmetrics.Hist.create ();
        rng = Engine.fresh_rng engine;
        behaviour = { heavy = false };
      }
    in
    Network.register_client net id (fun d ->
        (* a corrupted delivery failed its authenticator: ignore it *)
        if not d.Network.corrupted then
          match P.reply d.Network.payload with
          | Some (id, node, result) -> on_reply t id ~node ~result
          | None -> ());
    t

  let send_one t =
    t.rid <- t.rid + 1;
    let op = String.make t.payload_size 'x' in
    let desc = desc_of_op ~client:t.id ~rid:t.rid op in
    let desc = if t.behaviour.heavy then { desc with flagged_heavy = true } else desc in
    let msg = P.request desc in
    let n = (3 * t.f) + 1 in
    let size = P.request_size ~n desc in
    let now = Engine.now t.engine in
    let span =
      if Bftspan.Tracer.sampled ~rid:desc.id.rid then
        Bftspan.Tracer.root ~client:t.id ~rid:desc.id.rid ~node:(-1) ~instance:(-1)
          ~tag:Bftspan.Tag.Client ~t0:now
      else -1
    in
    Request_id_table.replace t.pending desc.id
      { sent_at = now; span; replies = []; done_ = false };
    t.sent <- t.sent + 1;
    let send node =
      Network.send ~span t.net ~src:(Principal.client t.id) ~dst:(Principal.node node)
        ~size msg
    in
    match P.targets with
    | All ->
      for node = 0 to n - 1 do
        send node
      done
    | Rotate -> send ((t.id + t.rid) mod n)

  let set_rate t r =
    t.rate <- r;
    t.rate_epoch <- t.rate_epoch + 1;
    let epoch = t.rate_epoch in
    if r > 0.0 then begin
      let rec loop () =
        if t.rate_epoch = epoch && t.rate > 0.0 then begin
          let gap = Rng.exponential t.rng ~mean:(1.0 /. t.rate) in
          ignore
            (Engine.after t.engine (Time.of_sec_f gap) (fun () ->
                 if t.rate_epoch = epoch && t.rate > 0.0 then begin
                   send_one t;
                   loop ()
                 end))
        end
      in
      loop ()
    end
end
