(** Open-loop Aardvark client: signs each request and broadcasts it to
    all replicas; accepts a result on f+1 matching replies. *)

include Baseline.Client.S with type msg = Node.msg
