(* Requests logged by clients in private queues (paper §2.3 syntax).

   Work travels in one representation, the *packaged* form: a heap
   closure per request, the OCaml analogue of the libffi-packaged call
   of Fig. 9 (cif + argument block), plus a typed failure completion.
   It is fully general: any arity, any capture, trace-wrapped runs.  A
   [Call] carries an asynchronous call, a blocking query (the closure
   fills the client's ivar) or a promise-pipelined query (the closure
   fulfils the client's promise); [kind] tells them apart.

   [Sync] is the release half of the wait/release pair introduced by
   the modified query rule of §3.2.  [End] is the end-of-private-queue
   marker appended when a separate block closes. *)

(* Request class: routes a completed request's latency into the
   per-class histogram, and separates the handler's call and query
   accounting (pipelined fulfilments, call sheds vs query sheds). *)
type kind = K_call | K_query | K_pipelined

type packaged = {
  run : unit -> unit;
  fail : exn -> Printexc.raw_backtrace -> unit;
  kind : kind;
  reg : int;  (* issuing registration id, for handler-side event attribution *)
  mutable t_birth : int;  (* ns stamp at client issue (Clock.now_ns) *)
  mutable t_admit : int;  (* ns stamp after backpressure admission *)
}

type t = Call of packaged | Sync of Qs_sched.Sched.resumer | End

let pp ppf = function
  | Call { kind = K_call; _ } -> Format.pp_print_string ppf "call"
  | Call { kind = K_query; _ } -> Format.pp_print_string ppf "query"
  | Call { kind = K_pipelined; _ } -> Format.pp_print_string ppf "query_async"
  | Sync _ -> Format.pp_print_string ppf "sync"
  | End -> Format.pp_print_string ppf "end"
