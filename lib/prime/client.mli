(** Open-loop Prime client: signs each request and sends it to one
    replica (round-robin); the pre-ordering phase disseminates it.
    A faulty client can mark its requests heavy (1 ms execution) — the
    colluding half of the Figure 1 attack. *)

include Baseline.Client.S with type msg = Node.msg

type behaviour = Baseline.Client.behaviour = { mutable heavy : bool }

val behaviour : t -> behaviour
