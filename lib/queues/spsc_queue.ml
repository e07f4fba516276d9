(* Unbounded single-producer single-consumer queue.

   This is the "private queue" shape of the paper (§3.1): once a handler has
   dequeued a private queue from its queue-of-queues, exactly one client
   enqueues requests and exactly one handler dequeues them.  A linked list
   with a dummy node needs no CAS at all in this setting: the producer owns
   [tail], the consumer owns [head], and the only shared edge is the
   [next] pointer of the producer's last node, which is an [Atomic] so that
   the node's payload is published to the consumer (release on
   [Atomic.set], acquire on [Atomic.get]).  The producer role may pass
   from one client to the next through the consumer (queue reuse), so
   everything the producer owns is written before that release. *)

type 'a node = {
  mutable value : 'a option;
  next : 'a node option Atomic.t;
}

type 'a t = {
  mutable head : 'a node; (* consumer-owned: last dequeued (dummy) node *)
  mutable tail : 'a node; (* producer-owned: last enqueued node *)
  pushed : int Atomic.t;  (* diagnostics *)
  popped : int Atomic.t;
  closed : bool Atomic.t;
}

let make_node value = { value; next = Atomic.make None }

let create () =
  let dummy = make_node None in
  {
    head = dummy;
    tail = dummy;
    pushed = Atomic.make 0;
    popped = Atomic.make 0;
    closed = Atomic.make false;
  }

let push t v =
  if Atomic.get t.closed then raise Mailbox.Closed;
  let n = make_node (Some v) in
  let last = t.tail in
  (* Advance [tail] before publishing the link: a consumer that sees [n]
     may hand the queue to a new producer (the qoq queue cache recycles a
     private queue once its [End] is drained), which must then find
     [tail = n].  Writing [tail] after the publication let a preempted
     producer leave the next one linking onto the node before [n], so the
     consumer waited forever on [n.next]. *)
  t.tail <- n;
  Atomic.incr t.pushed;
  Atomic.set last.next (Some n)

let pop t =
  match Atomic.get t.head.next with
  | None -> None
  | Some n ->
    let v = n.value in
    (* Drop the reference so the GC can reclaim the payload while [n]
       lives on as the new dummy node. *)
    n.value <- None;
    t.head <- n;
    Atomic.incr t.popped;
    v

let peek t =
  match Atomic.get t.head.next with
  | None -> None
  | Some n -> n.value

let is_empty t = Atomic.get t.head.next = None

let length t =
  (* Racy estimate; exact when producer and consumer are quiescent. *)
  max 0 (Atomic.get t.pushed - Atomic.get t.popped)

(* Batched pop: walk as many published nodes as fit in [buf], then
   publish the consumption with a single counter update instead of one
   per element. *)
let drain t buf =
  let cap = Array.length buf in
  let taken = ref 0 in
  let continue_ = ref true in
  while !continue_ && !taken < cap do
    match Atomic.get t.head.next with
    | None -> continue_ := false
    | Some n ->
      (match n.value with
      | Some v -> buf.(!taken) <- v
      | None -> assert false);
      n.value <- None;
      t.head <- n;
      incr taken
  done;
  if !taken > 0 then
    ignore (Atomic.fetch_and_add t.popped !taken : int);
  !taken

let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

(* MAILBOX aliases. *)
let enqueue = push
let dequeue = pop
