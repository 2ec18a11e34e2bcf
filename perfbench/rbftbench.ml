(* rbftbench — the repository benchmark.

   Runs one named workload against a redundant RBFT cluster (f = 1:
   4 nodes, 2 instances, 20 open-loop clients, the flow-controlled
   configuration: admission budget 128 + adaptive batching) through
   the public Rbft.Cluster API, checks the run's safety, and prints
   its metrics. The last line of standard output is one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   With [--trace 0] the metrics are the end-to-end ones: goodput and
   latency in virtual time, the simulator's events and allocated words
   per request, heap peak and set-up time. With [--trace 1] a traced
   run (metrics registry, span tracer at 1/8 sampling, online auditor)
   gives the per-layer ones, simulator CPU per request among them; it
   must reproduce the untraced run exactly (same execution digest,
   executed count and event count). See README.md beside this file. *)

open Dessim
module Cluster = Rbft.Cluster
module Client = Rbft.Client
module Node = Rbft.Node
module Params = Rbft.Params
module Hist = Bftmetrics.Hist
module Throughput = Bftmetrics.Throughput
module Registry = Bftmetrics.Registry
module Network = Bftnet.Network

(* ------------------------------------------------------------------ *)
(* Workloads *)

type attack = No_attack | Worst1 | Worst2

type workload = {
  name : string;
  payload : int;  (** request payload bytes *)
  rate : float;  (** total offered load, requests per virtual second *)
  attack : attack;
  warmup : Time.t;  (** load before the measured window *)
  window : Time.t;  (** the measured window: sent and completed here *)
  drain : Time.t;  (** fixed drain after the load stops *)
  seeds : int;  (** simulated seeds per benchmark run *)
}

let n_clients = 20
let slo = Time.ms 50
let span_sample = 8

let workloads =
  let ms = Time.ms in
  [
    { name = "steady-8b"; payload = 8; rate = 30_000.0; attack = No_attack;
      warmup = ms 200; window = ms 500; drain = ms 100; seeds = 3 };
    { name = "bulk-4k"; payload = 4096; rate = 4_500.0; attack = No_attack;
      warmup = ms 200; window = ms 1000; drain = ms 100; seeds = 5 };
    { name = "overload-8b"; payload = 8; rate = 50_000.0; attack = No_attack;
      warmup = ms 200; window = ms 300; drain = ms 100; seeds = 6 };
    { name = "worst1-8b"; payload = 8; rate = 30_000.0; attack = Worst1;
      warmup = ms 200; window = ms 500; drain = ms 100; seeds = 3 };
    { name = "worst2-8b"; payload = 8; rate = 30_000.0; attack = Worst2;
      warmup = ms 200; window = ms 500; drain = ms 100; seeds = 3 };
  ]

let params () =
  { (Params.default ~f:1) with
    Params.admission_budget = 128;
    adaptive_batching = true }

(* The Byzantine nodes each attack installs (f = 1). *)
let faulty wl =
  match wl.attack with
  | No_attack -> []
  | Worst1 -> [ Params.n (params ()) - 1 ]
  | Worst2 -> [ Params.primary_of (params ()) ~instance:Params.master_instance ~view:0 ]

(* The workload set-up whose cost [setup_s] reports: build the
   cluster, install the attack, start the open-loop generators. *)
let build wl ~seed =
  let cluster =
    Cluster.create ~seed:(Int64.of_int seed) ~clients:n_clients
      ~payload_size:wl.payload (params ())
  in
  (match wl.attack with
   | No_attack -> ()
   | Worst1 -> Rbft.Attacks.worst_attack_1 cluster
   | Worst2 -> Rbft.Attacks.worst_attack_2 cluster);
  let per_client = wl.rate /. float_of_int n_clients in
  Array.iter (fun c -> Client.set_rate c per_client) (Cluster.clients cluster);
  cluster

(* ------------------------------------------------------------------ *)
(* Per-request latency from outside.

   A client times each request from its first send (a BUSY retry keeps
   that instant) and, when f+1 matching replies are in, adds the
   latency to its own histogram and stamps the completion instant in
   its completion counter. The histogram's bucketed percentiles are
   too coarse for a benchmark, but its count and running sum are
   exact. So an observer runs on every network send, installed as a
   pass-through fault hook (which leaves the simulation unchanged):

   - a client's first transmission of a new request records that
     request's send instant, exactly;
   - a client whose histogram grew since the previous send completed a
     group of requests whose latencies sum to the sum's growth;
   - the engine's pending-event count is sampled for its peak.

   After the run the completion counter gives every completion
   instant; each group is matched to the pending requests whose send
   instants make the group's latency sum exact to the nanosecond
   (clients complete in execution order, usually request order, so
   the first pending requests nearly always match). *)

module Ivec = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let b = Array.make (2 * v.len) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1
end

type observer = {
  engine : Engine.t;
  clients : Client.t array;
  hists : Hist.t array;
  sends : Ivec.t array;  (** send instant of request id k + 1 *)
  seen : int array;  (** completions already grouped *)
  sums : float array;  (** histogram sum at the last observation *)
  group_size : Ivec.t array;
  group_ns : Ivec.t array;  (** summed latency of the group, ns *)
  mutable queue_peak : int;  (** most pending engine events seen *)
}

let observer cluster =
  let clients = Cluster.clients cluster in
  let per_client f = Array.map (fun _ -> f ()) clients in
  {
    engine = Cluster.engine cluster;
    clients;
    hists = Array.map Client.latencies clients;
    sends = per_client Ivec.create;
    seen = Array.make (Array.length clients) 0;
    sums = Array.make (Array.length clients) 0.0;
    group_size = per_client Ivec.create;
    group_ns = per_client Ivec.create;
    queue_peak = 0;
  }

let observe o ~src =
  (match src with
   | Bftcrypto.Principal.Client c ->
     let s = o.sends.(c) in
     let sent = Client.sent o.clients.(c) in
     if sent > s.Ivec.len then begin
       let now = Engine.now o.engine in
       while s.Ivec.len < sent do Ivec.push s now done
     end
   | Bftcrypto.Principal.Node _ -> ());
  for c = 0 to Array.length o.hists - 1 do
    let h = o.hists.(c) in
    let k = Hist.count h in
    if k <> o.seen.(c) then begin
      let s = Hist.sum h in
      Ivec.push o.group_size.(c) (k - o.seen.(c));
      Ivec.push o.group_ns.(c) (int_of_float (Float.round ((s -. o.sums.(c)) *. 1e9)));
      o.seen.(c) <- k;
      o.sums.(c) <- s
    end
  done;
  let q = Engine.queue_size o.engine in
  if q > o.queue_peak then o.queue_peak <- q

let install o cluster =
  Network.set_fault_hook (Cluster.network cluster)
    (Some
       (fun ~src ~dst:_ ~size:_ ->
         observe o ~src;
         Network.pass_verdict))

(* Instants of every recorded completion, recovered by bisection over
   the counter's half-open window counts. *)
let completion_times counter ~horizon =
  let total = Throughput.total counter in
  let times = Array.make total 0 in
  let lo = ref 0 in
  for k = 1 to total do
    let a = ref !lo and b = ref horizon in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if Throughput.count_between counter 0 (mid + 1) >= k then b := mid
      else a := mid + 1
    done;
    times.(k - 1) <- !a;
    lo := !a
  done;
  times

(* Offers [found] each set of [d] pending request indices (ascending)
   among [cands] whose send instants sum to [target], depth-first in
   request order, pruned by the reachable sum range, until [found]
   accepts one or the shared [budget] of visits runs out. *)
let find_groups ~budget (sends : int array) (cands : int array) d target found =
  let n = Array.length cands in
  let pick = Array.make d 0 in
  let rec go pos depth acc =
    if depth = d then acc = target && found pick
    else if n - pos < d - depth || !budget <= 0 then false
    else begin
      decr budget;
      let r = d - depth in
      let lo = ref acc and hi = ref acc in
      for j = 0 to r - 1 do
        lo := !lo + sends.(cands.(pos + j));
        hi := !hi + sends.(cands.(n - 1 - j))
      done;
      if target < !lo || target > !hi then false
      else begin
        pick.(depth) <- cands.(pos);
        go (pos + 1) (depth + 1) (acc + sends.(cands.(pos)))
        || go (pos + 1) depth acc
      end
    end
  in
  go 0 0 0

(* Per completion, in completion order: (send instant, latency ns), or
   [None] when the completions cannot be matched to their requests,
   which makes the run incorrect. Groups are matched in order. Only a
   group's size and latency sum are known, so two sets of requests can
   fit a group; when a later group then fits none, the search goes back
   and tries the earlier groups' other sets. *)
let pair o c ~times =
  let sends = o.sends.(c).Ivec.a and n_sent = o.sends.(c).Ivec.len in
  let done_ = Bytes.make n_sent '\000' in
  let out = Array.make (Array.length times) (0, 0) in
  let sizes = o.group_size.(c) and sums = o.group_ns.(c) in
  let budget = ref 2_000_000 in
  (* Match groups [g..] to completions [k..]; every request before
     [first] is matched already. *)
  let rec assign g k first =
    if g = sizes.Ivec.len then true
    else begin
      let d = sizes.Ivec.a.(g) and sum_ns = sums.Ivec.a.(g) in
      let e = Array.sub times k d in
      let target = Array.fold_left ( + ) 0 e - sum_ns in
      let cands =
        let acc = ref [] in
        for i = n_sent - 1 downto first do
          if Bytes.get done_ i = '\000' && sends.(i) <= e.(d - 1) then
            acc := i :: !acc
        done;
        Array.of_list !acc
      in
      find_groups ~budget sends cands d target (fun idx ->
          let mark v = Array.iter (fun i -> Bytes.set done_ i v) idx in
          mark '\001';
          Array.iteri (fun j i -> out.(k + j) <- (sends.(i), e.(j) - sends.(i))) idx;
          let first' = ref first in
          while !first' < n_sent && Bytes.get done_ !first' = '\001' do incr first' done;
          assign (g + 1) (k + d) !first' || (mark '\000'; false))
    end
  in
  if assign 0 0 0 then Some out else None

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* One simulated run *)

type run = {
  (* virtual-time outcome *)
  latencies : float array;  (** window requests, ms, sorted *)
  goodput_n : int;  (** completions inside the window *)
  sent_w : int;
  completed_w : int;
  slo_ok_w : int;
  completed : int;  (** whole run, every client *)
  sent : int;
  retries : int;
  busy : int;
  shed : int;
  events : int;
  executed : int;
  digest : string;
  msgs : int;
  bytes : int;
  dropped : int;
  instance_changes : int;
  queue_peak : int;
  (* host cost *)
  cpu_s : float;  (** process CPU inside run_for *)
  words : float;  (** allocated inside run_for, minor and major heap *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
  (* safety *)
  problems : string list;
}

(* The virtual-time part of a run: must repeat bit for bit. *)
let fingerprint r =
  ( r.latencies, r.goodput_n, r.sent_w, r.completed_w, r.slo_ok_w,
    r.completed, r.sent, r.retries, r.busy, r.shed ),
  ( r.events, r.executed, r.digest, r.msgs, r.bytes, r.dropped,
    r.instance_changes )

let simulate wl ~seed =
  let cluster = build wl ~seed in
  let o = observer cluster in
  install o cluster;
  let cpu = ref 0.0 in
  let run_for d =
    let t0 = Sys.time () in
    Cluster.run_for cluster d;
    cpu := !cpu +. (Sys.time () -. t0)
  in
  let clients = Cluster.clients cluster in
  let sent_now () = Array.map Client.sent clients in
  let gc0 = Gc.quick_stat () in
  run_for wl.warmup;
  let s0 = sent_now () in
  run_for wl.window;
  let s1 = sent_now () in
  Array.iter (fun c -> Client.set_rate c 0.0) clients;
  run_for wl.drain;
  let gc1 = Gc.quick_stat () in
  Network.set_fault_hook (Cluster.network cluster) None;
  observe o ~src:(Bftcrypto.Principal.Node 0);
  let w0 = wl.warmup in
  let w1 = Time.add wl.warmup wl.window in
  let horizon = Time.add w1 wl.drain in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let lats = ref [] and in_window = ref 0 and slo_ok = ref 0 in
  let goodput_n = ref 0 and unpaired = ref 0 in
  Array.iteri
    (fun c client ->
      let counter = Client.completion_counter client in
      let times = completion_times counter ~horizon in
      if Array.length times <> Client.completed client then
        problem "client %d: %d completions counted, %d stamped" c
          (Client.completed client) (Array.length times);
      if Client.completed client > Client.sent client then
        problem "client %d completed %d > sent %d" c (Client.completed client)
          (Client.sent client);
      goodput_n := !goodput_n + Throughput.count_between counter w0 w1;
      let pairs =
        match pair o c ~times with
        | Some pairs -> pairs
        | None ->
          unpaired := !unpaired + Array.length times;
          [||]
      in
      Array.iter
        (fun (sent_at, lat_ns) ->
          if sent_at >= w0 && sent_at < w1 then begin
            incr in_window;
            lats := Time.to_ms_f lat_ns :: !lats;
            if lat_ns <= slo then incr slo_ok
          end)
        pairs)
    clients;
  let sent_w =
    Array.fold_left ( + ) 0 (Array.mapi (fun i s -> s - s0.(i)) s1)
  in
  if !in_window > sent_w then
    problem "%d window completions for %d window requests" !in_window sent_w;
  if !unpaired > 0 then
    problem "%d completions could not be matched to their requests" !unpaired;
  let faulty_nodes = faulty wl in
  if not (Cluster.agreement_ok cluster ~faulty:faulty_nodes) then
    problem "correct nodes disagree on the execution digest";
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let correct_node =
    let rec pick i = if List.mem i faulty_nodes then pick (i + 1) else i in
    Cluster.node cluster (pick 0)
  in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let net = Cluster.network cluster in
  let engine = Cluster.engine cluster in
  let r =
    {
      latencies = sorted;
      goodput_n = !goodput_n;
      sent_w;
      completed_w = !in_window;
      slo_ok_w = !slo_ok;
      completed = sum Client.completed clients;
      sent = sum Client.sent clients;
      retries = sum Client.retries clients;
      busy = sum Client.busy_replies clients;
      shed =
        sum
          (fun nd ->
            if List.mem (Node.id nd) faulty_nodes then 0 else Node.admission_shed nd)
          (Cluster.nodes cluster);
      events = Engine.events_processed engine;
      executed = Cluster.total_executed cluster;
      digest = Bftcrypto.Sha256.to_hex (Node.execution_digest correct_node);
      msgs = Network.messages_delivered net;
      bytes = Network.bytes_delivered net;
      dropped = Network.messages_dropped net;
      instance_changes = Node.instance_changes correct_node;
      queue_peak = o.queue_peak;
      cpu_s = !cpu;
      words = Gc.(
        let alloc s = s.minor_words +. s.major_words -. s.promoted_words in
        alloc gc1 -. alloc gc0);
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      top_heap_words = gc1.Gc.top_heap_words;
      problems = List.rev !problems;
    }
  in
  r

(* ------------------------------------------------------------------ *)
(* Traced run: registry + span tracer + online auditor, all read from
   outside after the run. *)

type traced = {
  t_run : run;
  violations : int;
  suspicious : int;  (** suspicious monitoring verdicts at correct nodes *)
  registry : Registry.sample list;
  stages : (string * float) list;  (** critical-path share per stage *)
}

let traced_run wl ~seed =
  Registry.reset Registry.default;
  Registry.enable ();
  Bftspan.Tracer.reset ();
  Bftspan.Tracer.enable ~sample:span_sample ();
  Bftaudit.Auditor.reset_declared ();
  let p = params () in
  let auditor =
    Bftaudit.Auditor.attach ~raise_on_violation:false ~n:(Params.n p)
      ~f:p.Params.f ()
  in
  let f = faulty wl in
  let suspicious = ref 0 in
  let tok =
    Bftaudit.Bus.subscribe (fun ev ->
        match ev.Bftaudit.Event.kind with
        | Bftaudit.Event.Monitor_verdict { suspicious = true; _ }
          when not (List.mem ev.Bftaudit.Event.node f) ->
          incr suspicious
        | _ -> ())
  in
  let r = simulate wl ~seed in
  Bftaudit.Bus.unsubscribe tok;
  Bftaudit.Auditor.detach auditor;
  Bftspan.Tracer.disable ();
  Registry.disable ();
  let summary = Bftspan.Analyze.summarize (Bftspan.Tracer.to_array ()) in
  Bftspan.Tracer.reset ();
  let stages =
    List.map
      (fun row ->
        (Bftspan.Tag.name row.Bftspan.Analyze.tag, row.Bftspan.Analyze.share))
      summary.Bftspan.Analyze.stages
  in
  {
    t_run = r;
    violations = List.length (Bftaudit.Auditor.violations auditor);
    suspicious = !suspicious;
    registry = Registry.snapshot Registry.default;
    stages;
  }

(* ------------------------------------------------------------------ *)
(* Outside-in micro timings of layer entry points *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median over 9 batches of the CPU time per call of [f], in seconds. *)
let time_per_call ~calls f =
  f ();
  median
    (List.init 9 (fun _ ->
         let t0 = Sys.time () in
         for _ = 1 to calls do f () done;
         (Sys.time () -. t0) /. float_of_int calls))

let sha256_us size =
  let s = String.make size 'x' in
  let calls = max 20 (400_000 / (size + 64)) in
  1e6 *. time_per_call ~calls (fun () -> ignore (Bftcrypto.Sha256.digest_string s))

(* One pop of the minimum and one push of a later key, the engine's
   steady-state pattern, on a heap holding [size] events. *)
let heap_pushpop_ns ~seed size =
  let size = max 1 size in
  let rng = Random.State.make [| seed |] in
  let h = Heap.create () in
  let seq = ref 0 in
  for _ = 1 to size do
    incr seq;
    Heap.push h ~key:(Random.State.int rng 1_000_000) ~seq:!seq ()
  done;
  let step () =
    match Heap.pop h with
    | Some (k, _, ()) ->
      incr seq;
      Heap.push h ~key:(k + 1 + Random.State.int rng 1_000_000) ~seq:!seq ()
    | None -> ()
  in
  1e9 *. time_per_call ~calls:200_000 step

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun mt -> Printf.printf "%-34s %18.6f %s\n" mt.m_name mt.value mt.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.m_name
             (json_number mt.value) mt.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let per_req x r = float_of_int x /. float_of_int (max 1 r.completed)
let per_req_f x r = x /. float_of_int (max 1 r.completed)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let describe wl ~seed r =
  Printf.printf
    "# %s seed %d: window sent %d, completed %d (fail_ratio %.6f), %d \
     within %.0f ms; latency samples %d (p50 %.4f ms, p99 %.4f ms); \
     goodput %.1f req/s; events %d; executed %d; cpu %.3f s; retries %d\n"
    wl.name seed r.sent_w r.completed_w
    (1.0 -. ratio r.completed_w r.sent_w)
    r.slo_ok_w (Time.to_ms_f slo) (Array.length r.latencies)
    (percentile r.latencies 50.0) (percentile r.latencies 99.0)
    (float_of_int r.goodput_n /. Time.to_sec_f wl.window)
    r.events r.executed r.cpu_s r.retries

(* ------------------------------------------------------------------ *)
(* Modes *)

let setup_batch = 8
let setup_settle = 8
let setup_group = 5

(* The simulated seeds of one benchmark run: [--seed] selects a fixed
   set of [wl.seeds] cluster seeds. *)
let sub_seeds wl seed = List.init wl.seeds (fun j -> (seed * 1000) + j)

let end_to_end wl ~seed ~seconds =
  let seeds = sub_seeds wl seed in
  (* Set-up alone, many times: the fastest sample is [setup_s]. A
     sample is the CPU time of a batch of set-ups run back to back. One
     set-up allocates about 1 MB, mostly in blocks too large for the
     minor heap, so its cost depends on the process's memory: in a
     fresh, small heap every few set-ups finish a major cycle, and
     memory the allocator has not used yet must be faulted in. So the
     samples are taken after each simulation, which has grown the heap,
     each after a full major collection, so that no garbage is charged
     to them, and after [setup_settle] untimed ones, which start up to
     twice as slow and settle. run.sh keeps freed memory in the
     process, so it is not faulted in again. What is left is the
     host's speed, which drops for seconds at a time by up to half;
     that only ever adds time, hence the minimum. The groups spread the
     samples over the run, so that some fall outside such a drop. *)
  let setups = ref [] in
  let setup_seeds = List.init setup_batch (fun i -> List.nth seeds (i mod wl.seeds)) in
  let batch () =
    let t0 = Sys.time () in
    List.iter (fun seed -> ignore (Sys.opaque_identity (build wl ~seed))) setup_seeds;
    (Sys.time () -. t0) /. float_of_int setup_batch
  in
  let simulate seed =
    let r = simulate wl ~seed in
    let sample () = Gc.full_major (); batch () in
    for _ = 1 to setup_settle do ignore (sample ()) done;
    setups := !setups @ List.init setup_group (fun _ -> sample ());
    r
  in
  (* Measure every seed once; then, while [seconds] of measuring time
     have not passed, repeat them in turn. A repeat is the same
     simulation, so every virtual-time figure must come back
     identical; it only adds CPU samples. *)
  let t_start = Sys.time () in
  let firsts = List.map (fun seed -> (seed, simulate seed)) seeds in
  (* The heap peak of the first simulation, which runs in a fresh
     process. Each later simulation in the process starts on the heap
     the earlier ones left, and raises the process's peak by an amount
     that depends on what ran between them. *)
  let heap_mb =
    float_of_int (snd (List.hd firsts)).top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. 1048576.0
  in
  let rec repeat acc i =
    if Sys.time () -. t_start >= seconds || i >= 2 * wl.seeds then List.rev acc
    else begin
      let seed, first = List.nth firsts (i mod wl.seeds) in
      let r = simulate seed in
      let acc = (r, fingerprint r = fingerprint first) :: acc in
      repeat acc (i + 1)
    end
  in
  let repeats = repeat [] 0 in
  let runs = List.map snd firsts @ List.map fst repeats in
  List.iter (fun (seed, r) -> describe wl ~seed r) firsts;
  List.iter
    (fun r -> List.iter (fun p -> Printf.printf "# PROBLEM: %s\n" p) r.problems)
    runs;
  let diverged = List.length (List.filter (fun (_, same) -> not same) repeats) in
  if diverged > 0 then
    Printf.printf "# PROBLEM: %d repeat(s) of the same seed diverged\n" diverged;
  let failed = List.length (List.filter (fun r -> r.problems <> []) runs) + diverged in
  (* Virtual-time figures pool the seeds: every window request of
     every seed is one sample. *)
  let firsts = List.map snd firsts in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 firsts in
  let pooled = Array.concat (List.map (fun r -> r.latencies) firsts) in
  Array.sort compare pooled;
  let window_s = float_of_int wl.seeds *. Time.to_sec_f wl.window in
  let sent_w = total (fun r -> r.sent_w) in
  let completed = float_of_int (total (fun r -> r.completed)) in
  let cpu_us = List.map (fun r -> 1e6 *. per_req_f r.cpu_s r) runs in
  Printf.printf "# set-up us, each sample: %s\n"
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.0f" (1e6 *. x)) !setups));
  Printf.printf "# CPU us per request, each simulation: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") cpu_us));
  Printf.printf
    "# pooled over %d seed(s): %d window requests, %d latency samples; %d \
     repeat(s)\n"
    wl.seeds sent_w (Array.length pooled) (List.length repeats);
  print_result ~correct:(failed = 0) ~attempted:(List.length runs) ~failed
    [
      m "goodput_req_s" "req/s" (float_of_int (total (fun r -> r.goodput_n)) /. window_s);
      m "latency_p50_ms" "ms" (percentile pooled 50.0);
      m "latency_p99_ms" "ms" (percentile pooled 99.0);
      m "completed_ratio" "ratio" (ratio (total (fun r -> r.completed_w)) sent_w);
      m "slo_ok_ratio" "ratio" (ratio (total (fun r -> r.slo_ok_w)) sent_w);
      m "sim_events_per_req" "count"
        (float_of_int (total (fun r -> r.events)) /. completed);
      m "sim_words_per_req" "words"
        (List.fold_left (fun acc r -> acc +. r.words) 0.0 firsts /. completed);
      m "peak_heap_mb" "MB" heap_mb;
      m "setup_s" "s" (List.fold_left min infinity !setups);
    ]

let per_layer wl ~seed =
  let seed = List.hd (sub_seeds wl seed) in
  (* An untimed simulation of the seed first, so that the timed plain
     and traced runs both start on a heap the simulation has grown: the
     first simulation in a process pays for that growth. *)
  let warm = simulate wl ~seed in
  let plain = simulate wl ~seed in
  let t = traced_run wl ~seed in
  let tr = t.t_run in
  describe wl ~seed plain;
  (* The problems of each of the three simulations; [failed] counts
     the simulations with any. *)
  let check cond fmt = Printf.ksprintf (fun s -> if cond then [ s ] else []) fmt in
  let per_sim =
    [
      warm.problems
      @ check (fingerprint warm <> fingerprint plain) "a repeat of seed %d diverged" seed;
      plain.problems;
      tr.problems
      @ check (t.violations > 0) "online auditor: %d violation(s)" t.violations
      @ check
          (tr.digest <> plain.digest || tr.executed <> plain.executed
         || tr.events <> plain.events)
          "traced run diverged: executed %d/%d, events %d/%d, digest %s/%s"
          tr.executed plain.executed tr.events plain.events tr.digest plain.digest;
    ]
  in
  let problems = List.concat per_sim in
  List.iter (fun p -> Printf.printf "# PROBLEM: %s\n" p) problems;
  (* Registry reads: a counter family summed over its children,
     optionally only those with one label value; the histogram child
     with the given labels. *)
  let counter ?label name =
    List.fold_left
      (fun acc s ->
        match s.Registry.s_value with
        | Registry.Counter_v v
          when s.Registry.s_name = name
               && (match label with
                  | None -> true
                  | Some (k, v') -> List.assoc_opt k s.Registry.s_labels = Some v')
          ->
          acc + v
        | _ -> acc)
      0 t.registry
  in
  let hist name ~labels =
    List.find_map
      (fun s ->
        match s.Registry.s_value with
        | Registry.Histogram_v h
          when s.Registry.s_name = name
               && List.for_all
                    (fun (k, v) -> List.assoc_opt k s.Registry.s_labels = Some v)
                    labels ->
          Some h
        | _ -> None)
      t.registry
  in
  let occupancy =
    (* request-weighted mean batch size over every primary *)
    let n, sum =
      List.fold_left
        (fun (n, sum) s ->
          match s.Registry.s_value with
          | Registry.Histogram_v h when s.Registry.s_name = "bft_batch_occupancy"
            ->
            (n + h.Registry.h_count, sum +. h.Registry.h_sum)
          | _ -> (n, sum))
        (0, 0.0) t.registry
    in
    if n = 0 then 0.0 else sum /. float_of_int n
  in
  let correct_node =
    string_of_int (if List.mem 1 (faulty wl) then 2 else 1)
  in
  let ordering p =
    match
      hist "bft_ordering_latency_seconds"
        ~labels:[ ("node", correct_node); ("instance", "0") ]
    with
    | Some h -> 1e3 *. (if p = 50 then h.Registry.h_p50 else h.Registry.h_p99)
    | None -> 0.0
  in
  let share tag =
    match List.assoc_opt tag t.stages with Some s -> s | None -> 0.0
  in
  let ops = [ "mac_gen"; "mac_verify"; "authenticator"; "digest"; "sig_sign"; "sig_verify" ] in
  let failed = List.length (List.filter (fun ps -> ps <> []) per_sim) in
  print_result ~correct:(failed = 0) ~attempted:3 ~failed
    ([
       m "sim_cpu_us_per_req" "us" (1e6 *. per_req_f plain.cpu_s plain);
       m "dessim.events_per_req" "count" (per_req plain.events plain);
       m "dessim.cpu_ns_per_event" "ns"
         (1e9 *. plain.cpu_s /. float_of_int (max 1 plain.events));
       m "dessim.queue_peak" "count" (float_of_int plain.queue_peak);
       m "dessim.heap_pushpop_ns" "ns" (heap_pushpop_ns ~seed plain.queue_peak);
       m "gc.minor_words_per_req" "words" (per_req_f plain.minor_words plain);
       m "gc.promoted_words_per_req" "words" (per_req_f plain.promoted_words plain);
       m "gc.major_collections" "count" (float_of_int plain.major_collections);
       m "gc.top_heap_words" "words" (float_of_int warm.top_heap_words);
       m "bftcrypto.sha256_us.8B" "us" (sha256_us 8);
       m "bftcrypto.sha256_us.4kB" "us" (sha256_us 4096);
     ]
    @ List.map
        (fun op ->
          m ("bftcrypto.ops_per_req." ^ op) "count"
            (per_req (counter ~label:("op", op) "bft_crypto_ops_total") tr))
        ops
    @ [
        m "bftcrypto.bytes_per_req" "B" (per_req (counter "bft_crypto_bytes_total") tr);
        m "span.crypto-verify.share" "ratio" (share "crypto-verify");
        m "span.queue-wait.share" "ratio" (share "queue-wait");
        m "span.net-transit.share" "ratio" (share "net-transit");
        m "span.reply.share" "ratio" (share "reply");
        m "span.batch-wait.share" "ratio" (share "batch-wait");
        m "span.prepare.share" "ratio" (share "prepare");
        m "span.commit.share" "ratio" (share "commit");
        m "span.propagate.share" "ratio" (share "propagate");
        m "span.backoff.share" "ratio" (share "backoff");
        m "bftnet.msgs_per_req" "count" (per_req plain.msgs plain);
        m "bftnet.bytes_per_req" "B" (per_req plain.bytes plain);
        m "bftnet.dropped" "count" (float_of_int plain.dropped);
        m "pbftcore.batch_occupancy_mean" "count" occupancy;
        m "pbftcore.ordering_p50_ms" "ms" (ordering 50);
        m "pbftcore.ordering_p99_ms" "ms" (ordering 99);
        m "pbftcore.view_changes" "count"
          (float_of_int (counter "bft_view_changes_total"));
        m "rbft.instance_changes" "count" (float_of_int plain.instance_changes);
        m "rbft.monitor_suspicious" "count" (float_of_int t.suspicious);
        m "bftflow.retries_per_req" "count" (per_req plain.retries plain);
        m "bftflow.busy_per_req" "count" (per_req plain.busy plain);
        m "bftflow.shed_per_req" "count" (per_req plain.shed plain);
        m "bftflow.useful_ratio" "ratio"
          (ratio plain.completed (plain.sent + plain.retries));
        m "trace_overhead_pct" "%"
          (100.0 *. (tr.cpu_s -. plain.cpu_s) /. plain.cpu_s);
      ])

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let rate = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the simulated run");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rate", Arg.Set_float rate, "R override the offered load (req/s), for knee probes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rbftbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun wl -> wl.name = !workload) workloads with
  | None ->
    Printf.eprintf "rbftbench: unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map (fun wl -> wl.name) workloads));
    exit 2
  | Some wl ->
    let wl = if !rate > 0.0 then { wl with rate = !rate } else wl in
    if !trace = 0 then end_to_end wl ~seed:!seed ~seconds:!seconds
    else per_layer wl ~seed:!seed
