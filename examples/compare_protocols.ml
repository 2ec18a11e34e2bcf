(* Compare the four robust BFT protocols in the fault-free case: a
   miniature of the paper's Figure 7 at one load point per protocol.

   Run with: dune exec examples/compare_protocols.exe *)

open Dessim
open Bftharness

let measure_latency hists =
  let s = Bftmetrics.Stats.create () in
  List.iter
    (fun h -> if Bftmetrics.Hist.count h > 0 then Bftmetrics.Stats.add s (Bftmetrics.Hist.mean h))
    hists;
  1e3 *. Bftmetrics.Stats.mean s

let run_one proto =
  let payload = 8 in
  let offered = 0.9 *. Calibrate.peak_rate proto ~size:payload in
  let clients = 20 in
  let rate = offered /. float_of_int clients in
  let duration = Time.of_sec_f 1.5 in
  let warm = Time.ms 400 in
  let baseline (type k) (module B : Baseline.S with type Node.config = k) (config : k) =
    let cluster = B.Cluster.create ~clients ~payload_size:payload config in
    Array.iter (fun c -> B.Client.set_rate c rate) (B.Cluster.clients cluster);
    B.Cluster.run_for cluster duration;
    let tput = B.Cluster.throughput_between cluster warm duration in
    let lat =
      measure_latency (Array.to_list (Array.map B.Client.latencies (B.Cluster.clients cluster)))
    in
    (tput, lat)
  in
  match proto with
  | Calibrate.Rbft | Calibrate.Rbft_udp | Calibrate.Rbft_concurrent ->
    let transport =
      match proto with Calibrate.Rbft_udp -> Bftnet.Network.Udp | _ -> Bftnet.Network.Tcp
    in
    let cluster =
      Rbft.Cluster.create ~transport ~clients ~payload_size:payload (Rbft.Params.default ~f:1)
    in
    Array.iter (fun c -> Rbft.Client.set_rate c rate) (Rbft.Cluster.clients cluster);
    Rbft.Cluster.run_for cluster duration;
    let tput = Rbft.Cluster.throughput_between cluster warm duration in
    let lat =
      measure_latency
        (Array.to_list (Array.map Rbft.Client.latencies (Rbft.Cluster.clients cluster)))
    in
    (tput, lat)
  | Calibrate.Aardvark -> baseline (module Aardvark) (Aardvark.Node.default_config ~f:1)
  | Calibrate.Spinning -> baseline (module Spinning) (Spinning.Node.default_config ~f:1)
  | Calibrate.Prime ->
    baseline (module Prime)
      { (Prime.Node.default_config ~f:1) with Prime.Node.exec_cost = Time.us 1 }

let () =
  Printf.printf "== Fault-free comparison, 8B requests at 90%% of peak (f = 1) ==\n\n";
  Printf.printf "  %-10s %18s %14s\n" "protocol" "throughput(kreq/s)" "latency(ms)";
  List.iter
    (fun proto ->
      let tput, lat = run_one proto in
      Printf.printf "  %-10s %18.1f %14.2f\n%!" (Calibrate.name proto) (tput /. 1e3) lat)
    [
      Calibrate.Spinning;
      Calibrate.Rbft;
      Calibrate.Rbft_udp;
      Calibrate.Aardvark;
      Calibrate.Prime;
    ];
  Printf.printf
    "\npaper (Fig 7a): Spinning fastest, then RBFT ~= Aardvark, Prime slowest\n\
     with an order-of-magnitude latency penalty for Prime.\n"
