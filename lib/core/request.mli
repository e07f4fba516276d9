(** Requests exchanged between clients and handlers.

    The runtime counterpart of the statement syntax in paper §2.3.  Work
    travels in one representation, the {e packaged} form: a heap closure
    per request plus a typed failure completion (the libffi call block
    of paper Fig. 9).  [Call] carries asynchronous calls, blocking
    queries and promise-pipelined queries alike; {!kind} tells them
    apart.

    [Sync] is the wait/release pair of the (client-executed) query
    protocol; [End] the end-of-registration marker a client appends
    when its separate block closes. *)

type kind = K_call | K_query | K_pipelined
(** Request class: selects the per-class latency histogram, and lets
    the handler tell a pipelined fulfilment ([promises_fulfilled]) and a
    query shed ([Query_shed]) from their call counterparts. *)

type packaged = {
  run : unit -> unit;
  fail : exn -> Printexc.raw_backtrace -> unit;
  kind : kind;
  reg : int;  (** issuing registration id ([Registration.rid]) *)
  mutable t_birth : int;  (** ns stamp at client issue *)
  mutable t_admit : int;  (** ns stamp after backpressure admission *)
}

type t = Call of packaged | Sync of Qs_sched.Sched.resumer | End

val pp : Format.formatter -> t -> unit
