(* Socket-backed message queue — the paper's second piece of future work
   (§7): "we plan to further explore the utility of the private queue
   design, in particular the usage of sockets as the underlying
   implementation".

   This module is that exploration: a FIFO queue with the same interface
   shape as the runtime's private queues, but whose transport is a Unix
   socket pair carrying length-prefixed marshalled messages — the exact
   mechanics a distributed SCOOP would need, exercised inside one
   process.  The cost question it answers is measured by the
   `transport:*` ablations in the micro-benchmark suite: serialization +
   syscalls versus the in-memory SPSC queue.

   Messages must be marshal-safe values (no closures — a distributed
   runtime ships commands, not code; captured mutable state would be
   silently copied).  Both socket ends are non-blocking: a would-block
   write or read yields the fiber instead of stalling the domain, so the
   queue composes with the scheduler like every other primitive.

   Write path.  Producers marshal straight into an outgoing buffer;
   a *flush* takes the whole buffer and sends it with as few [write]s as
   the kernel allows.  [enqueue] flushes before it returns.  [post]
   defers: the first post of a burst spawns one flush fiber, later posts
   only append until that fiber runs, so a burst — k pipelined queries,
   a handler drain batch of replies — costs one syscall, not k.  This is
   the queue-of-queues amortisation applied to the wire: one stream per
   direction, batched without reordering. *)

exception Closed = Qs_queues.Mailbox.Closed
exception Truncated_frame
exception Bad_frame of int

let () =
  Printexc.register_printer (function
    | Truncated_frame -> Some "Qs_remote.Socket_queue.Truncated_frame"
    | Bad_frame n ->
      Some (Printf.sprintf "Qs_remote.Socket_queue.Bad_frame(%d)" n)
    | _ -> None)

(* A peer dying mid-conversation must surface as [Closed]: writes report
   EPIPE only when SIGPIPE is ignored — otherwise the signal kills the
   process before the error is seen. *)
let () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Frame-level transport counters, one registry per queue: what the
   `transport:*` ablations pay per message, now observable directly. *)
type counters = {
  registry : Qs_obs.Counter.registry;
  frames_sent : Qs_obs.Counter.t;
  writes : Qs_obs.Counter.t; (* write syscalls that moved bytes *)
  frames_received : Qs_obs.Counter.t;
  bytes_sent : Qs_obs.Counter.t;
  bytes_received : Qs_obs.Counter.t;
  would_blocks : Qs_obs.Counter.t; (* EAGAIN on either end *)
  truncated_frames : Qs_obs.Counter.t; (* EOF inside a frame *)
  bad_frames : Qs_obs.Counter.t; (* headers with an impossible length *)
}

let make_counters () =
  let registry = Qs_obs.Counter.registry () in
  let c name = Qs_obs.Counter.make registry name in
  (* Bind before constructing the record: record fields evaluate in
     unspecified order, and registration order is the snapshot order. *)
  let frames_sent = c "frames_sent" in
  let writes = c "writes" in
  let frames_received = c "frames_received" in
  let bytes_sent = c "bytes_sent" in
  let bytes_received = c "bytes_received" in
  let would_blocks = c "would_blocks" in
  let truncated_frames = c "truncated_frames" in
  let bad_frames = c "bad_frames" in
  { registry; frames_sent; writes; frames_received; bytes_sent;
    bytes_received; would_blocks; truncated_frames; bad_frames }

let frame_header_size = 8

(* Largest payload a frame may carry, either way.  A received header
   claiming more (or a negative length) is hostile or corrupt: the
   stream is rejected before anything that size is allocated. *)
let max_frame = 64 * 1024 * 1024

(* Posted bytes past which [post] stops deferring and flushes inline,
   parking on writability like [enqueue]: a peer that stops reading
   bounds the sender's memory, and backpressure crosses the connection
   as it did when every frame was written at once. *)
let out_cap = 64 * 1024

let initial_out = 8192

type 'a t = {
  read_fd : Unix.file_descr;
  write_fd : Unix.file_descr;
  flags : Marshal.extern_flags list; (* e.g. [Closures] for same-binary peers *)
  write_lock : Qs_sched.Fiber_mutex.t; (* one flush on the wire at a time *)
  out_lock : Mutex.t;
      (* guards the posted buffer and the open/failed state: producers on
         any domain append under it, a flush swaps the buffer out under it *)
  mutable out : Bytes.t; (* framed messages posted, not yet flushed *)
  mutable out_len : int;
  mutable out_frames : int;
  mutable spare : Bytes.t;
      (* the other buffer; only flushes touch it, under [write_lock] *)
  mutable flush_pending : bool; (* a flush fiber is spawned, not yet run *)
  mutable write_closed : bool;
  mutable failed : bool; (* a write failed: the stream is broken *)
  on_failure : unit -> unit;
  extra_writes : Qs_obs.Counter.t option;
  ctrs : counters;
  mutable read_buffer : Bytes.t;
  mutable read_pos : int; (* first unparsed byte *)
  mutable read_len : int; (* end of the bytes read so far *)
  mutable eof : bool;
  mutable truncated : bool; (* EOF landed inside a frame (counted once) *)
  mutable bad : bool; (* a hostile header was seen (counted once) *)
}

let make ?(flags = []) ?(on_failure = ignore) ?writes ~read_fd ~write_fd () =
  {
    read_fd;
    write_fd;
    flags;
    write_lock = Qs_sched.Fiber_mutex.create ();
    out_lock = Mutex.create ();
    out = Bytes.create initial_out;
    out_len = 0;
    out_frames = 0;
    spare = Bytes.create initial_out;
    flush_pending = false;
    write_closed = false;
    failed = false;
    on_failure;
    extra_writes = writes;
    ctrs = make_counters ();
    read_buffer = Bytes.create 4096;
    read_pos = 0;
    read_len = 0;
    eof = false;
    truncated = false;
    bad = false;
  }

let create ?flags () =
  let read_fd, write_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock read_fd;
  Unix.set_nonblock write_fd;
  make ?flags ~read_fd ~write_fd ()

(* Wrap externally established fds (e.g. one end of an accepted TCP or
   unix-domain connection).  [read_fd] and [write_fd] may be the same
   descriptor: a duplex connection is typically wrapped twice, once as a
   receive-only queue and once as a send-only one.  [set_nonblock] is
   idempotent, so double-wrapping one fd is fine. *)
let of_fds ?flags ?on_failure ?writes ~read_fd ~write_fd () =
  (try Unix.set_nonblock read_fd with Unix.Unix_error _ -> ());
  (try Unix.set_nonblock write_fd with Unix.Unix_error _ -> ());
  make ?flags ?on_failure ?writes ~read_fd ~write_fd ()

let counters t = Qs_obs.Counter.snapshot t.ctrs.registry

(* -- Write path ------------------------------------------------------------ *)

(* Double the posted buffer, keeping what is already framed. *)
let grow_out t =
  let bigger = Bytes.create (2 * Bytes.length t.out) in
  Bytes.blit t.out 0 bigger 0 t.out_len;
  t.out <- bigger

(* Frame [v] onto the posted buffer, marshalling in place: the payload
   goes straight after a reserved header, so a message costs no staging
   copy.  A full buffer doubles and the marshal is retried.  Caller
   holds [out_lock]. *)
let rec append t v =
  let hdr = t.out_len in
  let room = Bytes.length t.out - hdr - frame_header_size in
  if room <= 0 then begin
    grow_out t;
    append t v
  end
  else
    match
      Marshal.to_buffer t.out (hdr + frame_header_size) (min room max_frame)
        v t.flags
    with
    | n ->
      Bytes.set_int64_le t.out hdr (Int64.of_int n);
      t.out_len <- hdr + frame_header_size + n;
      t.out_frames <- t.out_frames + 1
    | exception Failure _ when room < max_frame ->
      grow_out t;
      append t v
    | exception Failure _ ->
      invalid_arg "Socket_queue: message larger than the 64 MiB frame limit"

(* Take [out_lock] and frame [v].  Returns with the lock still held, so
   the caller decides under it how the frame is flushed; on an error the
   lock is released before raising. *)
let append_locked t v =
  Mutex.lock t.out_lock;
  match
    if t.write_closed || t.failed then raise Closed;
    append t v
  with
  | () -> ()
  | exception e ->
    Mutex.unlock t.out_lock;
    raise e

(* Write [len] bytes of [buf], parking on would-block and looping over
   partial writes. *)
let write_all t buf len =
  let rec go off =
    if off < len then begin
      match Unix.write t.write_fd buf off (len - off) with
      | n ->
        Qs_obs.Counter.incr t.ctrs.writes;
        Option.iter Qs_obs.Counter.incr t.extra_writes;
        Qs_obs.Counter.add t.ctrs.bytes_sent n;
        go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* Readiness wait instead of a yield-spin: the fiber parks until
           the kernel drains the send buffer, so a slow peer costs no
           scheduler churn. *)
        Qs_obs.Counter.incr t.ctrs.would_blocks;
        Qs_sched.Sched.await_writable t.write_fd;
        go off
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Closed
    end
  in
  go 0

(* The stream is broken: drop what is posted and refuse further sends.
   [true] the first time, when the owner's hook is due. *)
let mark_failed t =
  Mutex.lock t.out_lock;
  let first = not t.failed in
  t.failed <- true;
  t.out_len <- 0;
  t.out_frames <- 0;
  Mutex.unlock t.out_lock;
  first

(* Send everything posted so far.  The buffer is swapped for the spare
   under [out_lock], so producers keep appending while the taken one is
   written; [write_lock] keeps flushes — and so frames — in post order.
   [deferred] marks the burst's flush fiber, whose run re-arms the next
   burst's spawn. *)
let flush ~deferred t =
  Qs_sched.Fiber_mutex.lock t.write_lock;
  Mutex.lock t.out_lock;
  if deferred then t.flush_pending <- false;
  if t.failed then begin
    Mutex.unlock t.out_lock;
    Qs_sched.Fiber_mutex.unlock t.write_lock;
    raise Closed
  end;
  let buf = t.out and len = t.out_len and frames = t.out_frames in
  if len > 0 then begin
    t.out <- t.spare;
    t.spare <- buf;
    t.out_len <- 0;
    t.out_frames <- 0
  end;
  Mutex.unlock t.out_lock;
  match write_all t buf len with
  | () ->
    Qs_obs.Counter.add t.ctrs.frames_sent frames;
    (* One outsized message must not pin its buffer for the
       connection's lifetime. *)
    if len > 0 && Bytes.length buf > 16 * out_cap then
      t.spare <- Bytes.create initial_out;
    Qs_sched.Fiber_mutex.unlock t.write_lock
  | exception e ->
    let first = mark_failed t in
    Qs_sched.Fiber_mutex.unlock t.write_lock;
    if first then t.on_failure ();
    raise e

let enqueue t v =
  append_locked t v;
  Mutex.unlock t.out_lock;
  flush ~deferred:false t

(* A deferred flush has no caller to raise into: a failure is recorded
   by [mark_failed] (later posts raise [Closed], the owner's hook runs). *)
let deferred_flush t =
  try flush ~deferred:true t with _ -> ()

let post t v =
  append_locked t v;
  let over = t.out_len >= out_cap in
  let spawn = (not over) && not t.flush_pending in
  if spawn then t.flush_pending <- true;
  Mutex.unlock t.out_lock;
  if over then flush ~deferred:false t
  else if spawn then Qs_sched.Sched.spawn (fun () -> deferred_flush t)

(* -- Read path ------------------------------------------------------------- *)

(* Payload length announced by the header at [read_pos]; a length no
   honest sender produces rejects the stream (counted once). *)
let payload_len t =
  let n = Int64.to_int (Bytes.get_int64_le t.read_buffer t.read_pos) in
  if n < 0 || n > max_frame then begin
    if not t.bad then begin
      t.bad <- true;
      Qs_obs.Counter.incr t.ctrs.bad_frames
    end;
    raise (Bad_frame n)
  end;
  n

(* Make room before a read: slide the unparsed remainder (at most one
   partial frame) to the front, and grow so that the whole frame it
   starts — or 4 KiB more input — fits.  The only place bytes move. *)
let compact t =
  let pending = t.read_len - t.read_pos in
  let frame =
    if pending >= frame_header_size then frame_header_size + payload_len t
    else 0
  in
  let need = max frame (pending + 4096) in
  if need > Bytes.length t.read_buffer then begin
    let bigger = Bytes.create (max need (2 * Bytes.length t.read_buffer)) in
    Bytes.blit t.read_buffer t.read_pos bigger 0 pending;
    t.read_buffer <- bigger
  end
  else if t.read_pos > 0 then
    Bytes.blit t.read_buffer t.read_pos t.read_buffer 0 pending;
  t.read_pos <- 0;
  t.read_len <- pending

(* One read into the buffer: [`Data] (bytes arrived), [`Eof] or
   [`Would_block]. *)
let read_some t =
  compact t;
  match
    Unix.read t.read_fd t.read_buffer t.read_len
      (Bytes.length t.read_buffer - t.read_len)
  with
  | 0 ->
    t.eof <- true;
    `Eof
  | n ->
    Qs_obs.Counter.add t.ctrs.bytes_received n;
    t.read_len <- t.read_len + n;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Qs_obs.Counter.incr t.ctrs.would_blocks;
    `Would_block
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    t.eof <- true;
    `Eof

(* Pull more bytes from the socket into the buffer; false at EOF. *)
let fill t =
  match read_some t with
  | `Data -> true
  | `Eof -> false
  | `Would_block ->
    (* Park on readability: the consumer of an idle queue costs nothing
       until a frame (or EOF) arrives. *)
    Qs_sched.Sched.await_readable t.read_fd;
    true

(* Non-blocking fill: pull whatever the kernel already has, but never
   yield — a would-block read just ends the batch. *)
let fill_nowait t = read_some t = `Data

let take_frame t =
  let pending = t.read_len - t.read_pos in
  if pending < frame_header_size then None
  else begin
    let total = frame_header_size + payload_len t in
    if pending < total then None
    else begin
      (* Decode in place: [Marshal.from_bytes] reads the payload at its
         offset, and the cursor moves past the frame — no copy of the
         payload, and no shifting of the frames behind it. *)
      let v = Marshal.from_bytes t.read_buffer (t.read_pos + frame_header_size) in
      t.read_pos <- t.read_pos + total;
      Qs_obs.Counter.incr t.ctrs.frames_received;
      Some v
    end
  end

(* EOF landed mid-frame: the writer closed (or died) after sending a
   frame header or a partial payload.  Silently returning [None] here
   would make a torn stream indistinguishable from a clean close, so the
   consumer gets an exception instead (counted once per stream). *)
let truncated t =
  if not t.truncated then begin
    t.truncated <- true;
    Qs_obs.Counter.incr t.ctrs.truncated_frames
  end;
  raise Truncated_frame

(* Single consumer: dequeue the next message, [None] once the write side
   is closed and everything has been drained.
   @raise Truncated_frame on EOF inside a frame. *)
let rec dequeue t =
  match take_frame t with
  | Some v -> Some v
  | None ->
    let pending = t.read_len - t.read_pos in
    if t.eof then if pending > 0 then truncated t else None
    else if fill t then dequeue t
    else if pending > 0 then dequeue t (* parse complete remainders *)
    else None

(* Batched receive: block (yielding) for the first message, then take
   every message already framed in the buffer or readable without
   blocking — the whole batch costs at most the syscalls the kernel
   forces, not one blocking round trip per message. *)
let drain t buf =
  let cap = Array.length buf in
  if cap = 0 then 0
  else
    match dequeue t with
    | None -> 0
    | Some v ->
      buf.(0) <- v;
      let taken = ref 1 in
      let continue_ = ref true in
      while !continue_ && !taken < cap do
        match take_frame t with
        | Some v ->
          buf.(!taken) <- v;
          incr taken
        | None -> if not (fill_nowait t) then continue_ := false
      done;
      !taken

(* Flush what is posted, then half-close: the consumer reads every
   frame sent before end-of-stream. *)
let close_writer t =
  Mutex.lock t.out_lock;
  let first = not t.write_closed in
  t.write_closed <- true;
  Mutex.unlock t.out_lock;
  if first then begin
    (try flush ~deferred:false t with _ -> ());
    try Unix.shutdown t.write_fd Unix.SHUTDOWN_SEND
    with Unix.Unix_error _ -> ()
  end

let fds t = (t.read_fd, t.write_fd)

let destroy t =
  close_writer t;
  (try Unix.close t.write_fd with Unix.Unix_error _ -> ());
  try Unix.close t.read_fd with Unix.Unix_error _ -> ()

let is_closed t = t.write_closed

(* Consumer-side view: a complete frame is already buffered.  Bytes still
   sitting in the kernel are not counted, so [false] is authoritative but
   [true] is only "nothing parsed yet". *)
let is_empty t =
  let pending = t.read_len - t.read_pos in
  not
    (pending >= frame_header_size
    && pending
       >= frame_header_size
          + Int64.to_int (Bytes.get_int64_le t.read_buffer t.read_pos))

module As_mailbox = struct
  type nonrec 'a t = 'a t

  let create () = create ()
  let enqueue = enqueue
  let dequeue = dequeue
  let drain = drain
  let close = close_writer
  let is_closed = is_closed
  let is_empty = is_empty
end
