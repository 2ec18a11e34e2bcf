(* The reply quorum of the baseline client shared by Aardvark, Spinning
   and Prime (Baseline.Client.Make): hand-built replies are delivered
   through a real Bftnet.Network, with no replica behind the client. *)

open Dessim
open Bftcrypto
open Bftnet

type msg =
  | Request of Pbftcore.Types.request_desc
  | Reply of { id : Pbftcore.Types.request_id; result : string; node : int }

module Client = Baseline.Client.Make (struct
  type nonrec msg = msg

  let request desc = Request desc
  let request_size ~n:_ (desc : Pbftcore.Types.request_desc) = 16 + desc.op_size
  let targets = Baseline.Client.All

  let reply = function
    | Reply { id; result; node } -> Some (id, node, result)
    | Request _ -> None
end)

let test_reply_quorum () =
  let engine = Engine.create ~seed:1L () in
  let net = Network.create engine (Network.default_config ~nodes:4) in
  let corrupt = ref false in
  Network.set_fault_hook net
    (Some (fun ~src:_ ~dst:_ ~size:_ -> { Network.pass_verdict with fv_corrupt = !corrupt }));
  let client = Client.create engine net ~f:1 ~id:0 () in
  Client.send_one client;
  let id = { Pbftcore.Types.client = 0; rid = 1 } in
  let reply ?(corrupted = false) node result =
    corrupt := corrupted;
    Network.send net ~src:(Principal.node node) ~dst:(Principal.client 0) ~size:32
      (Reply { id; result; node });
    corrupt := false;
    Engine.run engine
  in
  let completed what n = Alcotest.(check int) what n (Client.completed client) in
  reply 0 "ok";
  completed "f matching replies do not complete" 0;
  reply 0 "ok";
  completed "a repeated reply from one node does not count" 0;
  reply 1 "forged";
  completed "a mismatched result does not count" 0;
  reply ~corrupted:true 2 "ok";
  completed "a corrupted delivery is ignored" 0;
  reply 2 "ok";
  completed "the (f+1)-th distinct matching reply completes" 1;
  reply 3 "ok";
  completed "a request completes exactly once" 1;
  Alcotest.(check int) "one latency sample" 1
    (Bftmetrics.Hist.count (Client.latencies client))

let suites =
  [
    ( "baseline.client",
      [ Alcotest.test_case "f+1 distinct matching replies" `Quick test_reply_quorum ] );
  ]
