(* Observability hook: called when a job tagged with a span id (>= 0)
   is dequeued, with the virtual instants it occupies the server. At
   most one hook; the span tracer installs it. Kept global so hot
   submit paths pay only an integer compare when tracing is off. *)
let span_hook : (int -> start:Time.t -> finish:Time.t -> unit) option ref =
  ref None

let set_span_hook h = span_hook := h

(* Shared placeholder for consumed ring slots and the idle [current]
   field, so a finished job's closure is not kept reachable. *)
let noop () = ()

(* Queued jobs live in a ring of three parallel arrays: slot [i] holds
   the cost, span id and continuation of one job. The ring starts empty
   and doubles on demand (capacity is always a power of two), so a
   submit allocates nothing beyond the engine event of the job it
   starts. *)
type t = {
  engine : Engine.t;
  name : string;
  mutable costs : Time.t array;
  mutable spans : int array;
  mutable ks : (unit -> unit) array;
  mutable head : int;  (* slot of the oldest queued job *)
  mutable len : int;  (* queued jobs, excluding the one in service *)
  mutable current : unit -> unit;  (* continuation of the job in service *)
  complete : unit -> unit;
      (* the one completion action every job's engine event runs; built
         once in [create] *)
  mutable running : bool;
  mutable busy_until : Time.t;
  mutable busy_total : Time.t;
  mutable jobs : int;
  mutable speed : float;
  mutable queued_cost : Time.t;
      (* running sum of the queued jobs' costs, so [backlog] is O(1)
         on the adaptive batcher's per-flush polling path *)
}

let name t = t.name

let speed t = t.speed
let set_speed t s = t.speed <- (if s <= 0.0 then 1e-6 else s)

(* Scale a nominal cost by the current speed factor; jobs already
   started keep the scaling in force when they were dequeued. *)
let scaled t cost = if t.speed = 1.0 then cost else Time.mul_f cost (1.0 /. t.speed)

(* Only the job at the head of the queue has a scheduled completion
   event. This lets a running handler [charge] extra time and push back
   everything queued behind it. *)
let start_next t =
  if t.len = 0 then t.running <- false
  else begin
    let i = t.head in
    let cost = t.costs.(i) and span = t.spans.(i) in
    t.current <- t.ks.(i);
    t.ks.(i) <- noop;
    t.head <- (i + 1) land (Array.length t.ks - 1);
    t.len <- t.len - 1;
    t.queued_cost <- Time.max Time.zero (Time.sub t.queued_cost cost);
    t.running <- true;
    let cost = scaled t cost in
    let start = Time.max (Engine.now t.engine) t.busy_until in
    let finish = Time.add start cost in
    t.busy_until <- finish;
    t.busy_total <- Time.add t.busy_total cost;
    t.jobs <- t.jobs + 1;
    (if span >= 0 then
       match !span_hook with
       | Some h -> h span ~start ~finish
       | None -> ());
    ignore (Engine.at t.engine finish t.complete)
  end

let complete t () =
  let k = t.current in
  t.current <- noop;
  k ();
  start_next t

let create engine ~name =
  let rec t =
    {
      engine;
      name;
      costs = [||];
      spans = [||];
      ks = [||];
      head = 0;
      len = 0;
      current = noop;
      complete = (fun () -> complete t ());
      running = false;
      busy_until = Time.zero;
      busy_total = Time.zero;
      jobs = 0;
      speed = 1.0;
      queued_cost = Time.zero;
    }
  in
  t

(* Double the ring, unrolling it so the oldest job lands in slot 0. *)
let grow t =
  let cap = Array.length t.ks in
  let new_cap = if cap = 0 then 8 else 2 * cap in
  let costs = Array.make new_cap Time.zero in
  let spans = Array.make new_cap (-1) in
  let ks = Array.make new_cap noop in
  for n = 0 to t.len - 1 do
    let i = (t.head + n) land (cap - 1) in
    costs.(n) <- t.costs.(i);
    spans.(n) <- t.spans.(i);
    ks.(n) <- t.ks.(i)
  done;
  t.costs <- costs;
  t.spans <- spans;
  t.ks <- ks;
  t.head <- 0

let submit ?(span = -1) t ~cost k =
  if t.len = Array.length t.ks then grow t;
  let i = (t.head + t.len) land (Array.length t.ks - 1) in
  t.costs.(i) <- cost;
  t.spans.(i) <- span;
  t.ks.(i) <- k;
  t.len <- t.len + 1;
  t.queued_cost <- Time.add t.queued_cost cost;
  if not t.running then start_next t

let charge t extra =
  let extra = scaled t (Time.max Time.zero extra) in
  let base = Time.max (Engine.now t.engine) t.busy_until in
  t.busy_until <- Time.add base extra;
  t.busy_total <- Time.add t.busy_total extra

let busy_until t = t.busy_until

let backlog t =
  let now = Engine.now t.engine in
  Time.add (Time.max Time.zero (Time.sub t.busy_until now)) t.queued_cost

(* O(n) reference implementation of [backlog]; the property test pins
   the incremental [queued_cost] sum to this fold. *)
let backlog_fold t =
  let queued = ref Time.zero in
  for n = 0 to t.len - 1 do
    queued := Time.add !queued t.costs.((t.head + n) land (Array.length t.costs - 1))
  done;
  let queued = !queued in
  let now = Engine.now t.engine in
  Time.add (Time.max Time.zero (Time.sub t.busy_until now)) queued

let depth t = t.len

let busy_total t = t.busy_total
let jobs_served t = t.jobs
