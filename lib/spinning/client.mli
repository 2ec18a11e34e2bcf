(** Open-loop Spinning client: MAC-authenticated requests broadcast to
    all replicas (the paper notes Spinning clients use UDP multicast);
    accepts a result on f+1 matching replies. *)

include Baseline.Client.S with type msg = Node.msg
