open Dessim

type result = {
  scenario : Scenario.t;
  executed : int;
  sent : int;
  completed : int;
  safety_violations : Bftaudit.Auditor.violation list;
  events_checked : int;
  digest : string option;
  incidents : Bftdoctor.Doctor.incident_ref list;
}

(* A protocol-agnostic view of a freshly built cluster. *)
type sys = {
  hooks : Injector.hooks;
  run_for : Time.t -> unit;
  set_rates : float -> unit;
  totals : unit -> int * int;  (* sent, completed *)
  executed : unit -> int;
  describe : (string * string) list;  (* incident-bundle config fields *)
  context : (unit -> (string * string) list) option;  (* dump-time fields *)
}

let sum_totals sent completed clients =
  Array.fold_left (fun (s, c) cl -> (s + sent cl, c + completed cl)) (0, 0) clients

let build_rbft ~transport ?(ordering = Rbft.Params.Redundant) (s : Scenario.t) =
  let params =
    {
      (Rbft.Params.default ~f:s.Scenario.f) with
      Rbft.Params.lambda = s.Scenario.lambda;
      ordering;
      ic_quorum =
        (match s.Scenario.mutation with
         | Some Scenario.Ic_quorum_low -> Some 1
         | None -> None);
    }
  in
  let cluster =
    Rbft.Cluster.create ~seed:s.Scenario.seed ~transport
      ~clients:s.Scenario.workload.Scenario.clients
      ~payload_size:s.Scenario.workload.Scenario.payload params
  in
  let net = Rbft.Cluster.network cluster in
  {
    hooks =
      {
        Injector.engine = Rbft.Cluster.engine cluster;
        n = (3 * s.Scenario.f) + 1;
        set_fault_hook = Bftnet.Network.set_fault_hook net;
        set_cpu_factor =
          (fun ~node k -> Rbft.Node.set_cpu_factor (Rbft.Cluster.node cluster node) k);
        set_clock_factor =
          (fun ~node k ->
            Rbft.Node.set_clock_factor (Rbft.Cluster.node cluster node) k);
      };
    run_for = Rbft.Cluster.run_for cluster;
    set_rates =
      (fun r -> Array.iter (fun c -> Rbft.Client.set_rate c r) (Rbft.Cluster.clients cluster));
    totals =
      (fun () ->
        sum_totals Rbft.Client.sent Rbft.Client.completed (Rbft.Cluster.clients cluster));
    executed = (fun () -> Rbft.Cluster.total_executed cluster);
    describe = Rbft.Cluster.describe cluster;
    context =
      Some
        (fun () ->
          [
            ( "master_primary",
              string_of_int (Rbft.Cluster.master_primary cluster) );
          ]);
  }

let build_baseline (type k) (module B : Baseline.S with type Node.config = k)
    (config : k) (s : Scenario.t) =
  let cluster =
    B.Cluster.create ~seed:s.Scenario.seed
      ~clients:s.Scenario.workload.Scenario.clients
      ~payload_size:s.Scenario.workload.Scenario.payload config
  in
  let node i = B.Cluster.node cluster i in
  {
    hooks =
      {
        Injector.engine = B.Cluster.engine cluster;
        n = (3 * s.Scenario.f) + 1;
        set_fault_hook = Bftnet.Network.set_fault_hook (B.Cluster.network cluster);
        set_cpu_factor = (fun ~node:i k -> B.Node.set_cpu_factor (node i) k);
        set_clock_factor = (fun ~node:i k -> B.Node.set_clock_factor (node i) k);
      };
    run_for = B.Cluster.run_for cluster;
    set_rates =
      (fun r -> Array.iter (fun c -> B.Client.set_rate c r) (B.Cluster.clients cluster));
    totals =
      (fun () -> sum_totals B.Client.sent B.Client.completed (B.Cluster.clients cluster));
    executed = (fun () -> B.Cluster.total_executed cluster);
    describe =
      [
        ("protocol", Scenario.protocol_name s.Scenario.protocol);
        ("f", string_of_int s.Scenario.f);
      ];
    context = None;
  }

let build (s : Scenario.t) =
  match s.Scenario.protocol with
  | Scenario.Rbft -> build_rbft ~transport:Bftnet.Network.Tcp s
  | Scenario.Rbft_udp -> build_rbft ~transport:Bftnet.Network.Udp s
  | Scenario.Rbft_concurrent ->
    build_rbft ~transport:Bftnet.Network.Tcp
      ~ordering:Rbft.Params.Concurrent s
  | Scenario.Aardvark ->
    (* compressed policy times, so Aardvark can react within a scenario *)
    build_baseline (module Aardvark) (Aardvark.compressed_config ~f:s.Scenario.f) s
  | Scenario.Spinning ->
    build_baseline (module Spinning) (Spinning.Node.default_config ~f:s.Scenario.f) s
  | Scenario.Prime ->
    build_baseline (module Prime) (Prime.Node.default_config ~f:s.Scenario.f) s

(* Triggers for chaos runs: dump on any safety-relevant edge, and on a
   liveness stall well inside the drain bound so the bundle still holds
   the stalled state. *)
let doctor_triggers =
  let open Bftdoctor in
  [
    Trigger.spec Trigger.Instance_change ~cooldown:(Time.sec 1);
    Trigger.spec Trigger.Auditor_violation ~cooldown:(Time.sec 1);
    Trigger.spec
      (Trigger.Liveness_stall { idle = Time.of_sec_f 0.8 })
      ~cooldown:(Time.sec 5);
    (* Only ever samples under rbft-concurrent; inert elsewhere. *)
    Trigger.spec
      (Trigger.Seq_stall { age = Time.ms 125 })
      ~cooldown:(Time.sec 2);
  ]

let run ?(capture = false) ?doctor_dir (s : Scenario.t) =
  (* Chaos faults are benign (crash, partition, message-level chaos):
     no node is Byzantine, so the auditor checks all of them. *)
  Bftaudit.Auditor.reset_declared ();
  let auditor =
    Bftaudit.Auditor.attach ~raise_on_violation:false ~n:((3 * s.Scenario.f) + 1)
      ~f:s.Scenario.f ()
  in
  let cap = if capture then Some (Bftaudit.Capture.attach ()) else None in
  let sys = build s in
  let doctor =
    match doctor_dir with
    | None -> None
    | Some dir ->
      let config =
        Bftdoctor.Doctor.default_config ~dir:(Some dir) ~seed:s.Scenario.seed
          ~config_fields:(("scenario_name", s.Scenario.name) :: sys.describe)
          ~context:sys.context
          ~scenario:(Some (Scenario.to_string s))
          ~triggers:doctor_triggers ()
      in
      Some (Bftdoctor.Doctor.attach config sys.hooks.Injector.engine)
  in
  let injector = Injector.install sys.hooks ~seed:s.Scenario.seed s.Scenario.faults in
  sys.set_rates s.Scenario.workload.Scenario.rate;
  sys.run_for s.Scenario.duration;
  Injector.heal injector;
  sys.set_rates 0.0;
  sys.run_for s.Scenario.drain;
  let sent, completed = sys.totals () in
  let safety_violations = Bftaudit.Auditor.violations auditor in
  (* A run that failed the oracles without tripping any trigger still
     deserves forensics: force one bundle of the post-drain state. *)
  (match doctor with
  | Some d
    when Bftdoctor.Doctor.incidents d = []
         && (safety_violations <> [] || completed <> sent) ->
    Bftdoctor.Doctor.force d
      ~reason:
        (Printf.sprintf
           "oracle failure after drain: %d/%d completed, %d violation(s)"
           completed sent
           (List.length safety_violations))
  | _ -> ());
  let result =
    {
      scenario = s;
      executed = sys.executed ();
      sent;
      completed;
      safety_violations;
      events_checked = Bftaudit.Auditor.events_checked auditor;
      digest = Option.map Bftaudit.Capture.digest cap;
      incidents =
        (match doctor with
        | Some d -> Bftdoctor.Doctor.incidents d
        | None -> []);
    }
  in
  Bftaudit.Auditor.detach auditor;
  Option.iter Bftaudit.Capture.detach cap;
  Option.iter Bftdoctor.Doctor.detach doctor;
  result

let liveness_ok r =
  r.completed = r.sent
  && (r.scenario.Scenario.workload.Scenario.rate <= 0.0
      || r.scenario.Scenario.workload.Scenario.clients = 0
      || r.sent > 0)

let safety_ok r = r.safety_violations = []
let ok r = safety_ok r && liveness_ok r

let summary r =
  Printf.sprintf "%s [%s]: %s, %d/%d completed, %d executed, %d violations, %d events"
    r.scenario.Scenario.name
    (Scenario.protocol_name r.scenario.Scenario.protocol)
    (if ok r then "OK" else "FAIL")
    r.completed r.sent r.executed
    (List.length r.safety_violations)
    r.events_checked
