(** Socket-backed FIFO message queue: the paper's §7 exploration of
    "sockets as the underlying implementation" of private queues, inside
    one process.  Messages travel as length-prefixed marshalled frames
    over a non-blocking Unix socket pair; would-block conditions yield
    the fiber.

    Messages must be marshal-safe (no closures).  Multiple producer
    fibers, on any number of domains, may {!enqueue} or {!post} (frames
    never interleave and keep each producer's order); exactly one
    consumer fiber may {!dequeue}.

    Sends are buffered: a message is marshalled into an outgoing buffer
    and a {e flush} writes the whole buffer at once.  {!enqueue} flushes
    before returning; {!post} leaves the flush to one fiber per burst,
    so a burst of posts costs one [write]. *)

exception Closed
(** Same exception as [Qs_queues.Mailbox.Closed] (rebound). *)

exception Truncated_frame
(** End-of-stream arrived inside a frame: the writer closed after a
    partial header or payload.  Raised by {!dequeue}/{!drain} instead of
    returning [None] — a torn stream is a transport failure, not a clean
    close — and counted under [truncated_frames]. *)

exception Bad_frame of int
(** A frame header announced an impossible payload length (the
    argument): negative, or above the 64 MiB frame ceiling.  Raised by
    {!dequeue}/{!drain} before anything that size is allocated, counted
    under [bad_frames]; the stream cannot be resynchronised, so the
    consumer should drop the connection. *)

val out_cap : int
(** Posted bytes (64 KiB) past which {!post} flushes inline instead of
    deferring. *)

type 'a t

val create : ?flags:Marshal.extern_flags list -> unit -> 'a t
(** Fresh socket-pair transport.  [flags] are passed to [Marshal] on
    every send — [[Marshal.Closures]] lets
    same-binary peers ship code (the distributed runtime's wire format);
    the default ships data only. *)

val of_fds :
  ?flags:Marshal.extern_flags list ->
  ?on_failure:(unit -> unit) ->
  ?writes:Qs_obs.Counter.t ->
  read_fd:Unix.file_descr ->
  write_fd:Unix.file_descr ->
  unit ->
  'a t
(** Wrap externally established descriptors (an accepted TCP or
    unix-domain connection).  Both are switched to non-blocking.
    [read_fd] and [write_fd] may be the same descriptor — a duplex
    connection is typically wrapped twice, once used only for
    {!dequeue}/{!drain} and once only for {!enqueue}.  {!destroy} closes
    both (closing a shared fd twice is harmless).

    [on_failure] runs once, in whichever fiber sees a write fail
    (EPIPE, ECONNRESET) — including a deferred flush, which has no
    caller to raise into.  [writes] is bumped alongside the queue's own
    [writes] counter, for owners that total syscalls over many queues. *)

val enqueue : 'a t -> 'a -> unit
(** Send one message and flush: when [enqueue] returns, the message and
    every earlier post have been written to the socket.
    @raise Closed after {!close_writer} or once a write has failed.
    @raise Invalid_argument if the message exceeds the 64 MiB frame
    ceiling. *)

val post : 'a t -> 'a -> unit
(** Deferred send: marshal the message into the outgoing buffer and
    return.  The first post after a flush spawns one flush fiber; later
    posts only append until it runs, so posts made without suspending
    cost one [write] together.  Once {!out_cap} bytes are buffered,
    [post] flushes inline, parking on writability — a peer that stops
    reading stalls its posters.  A failure seen by the deferred flush
    marks the queue failed (later sends raise [Closed]) and runs the
    [on_failure] hook.  Must run inside a scheduler fiber.
    @raise Closed after {!close_writer} or once a write has failed. *)

val dequeue : 'a t -> 'a option
(** Receive the next message, yielding while none is available; [None]
    once the writer has closed and the stream is drained.
    @raise Truncated_frame if end-of-stream arrives inside a frame. *)

val drain : 'a t -> 'a array -> int
(** Batched receive: block (yielding) for the first message, then take
    every message already framed or readable without blocking, up to
    [Array.length buf]; returns the count, [0] once the writer has
    closed and the stream is drained. *)

val close_writer : 'a t -> unit
(** Flush what is posted, then signal end-of-stream to the consumer. *)

val is_closed : 'a t -> bool

val is_empty : 'a t -> bool
(** [false] means a complete frame is buffered; [true] only means
    nothing is parsed yet (bytes may still sit in the kernel). *)

val counters : 'a t -> Qs_obs.Counter.snapshot
(** Frame-level transport counters: [frames_sent], [writes] (write
    syscalls; [frames_sent / writes] is the coalescing factor),
    [frames_received], [bytes_sent], [bytes_received] (payload + 8-byte
    headers, as seen by the syscalls), [would_blocks] (EAGAIN episodes
    on either end), [truncated_frames] (streams ending inside a frame)
    and [bad_frames] (streams rejected for an impossible header).  Read
    with [Qs_obs.Counter.value]. *)

val destroy : 'a t -> unit
(** Close both file descriptors. *)

val fds : 'a t -> Unix.file_descr * Unix.file_descr
(** [(read_fd, write_fd)] of the underlying socket pair.  For tests and
    fault injection (e.g. writing a deliberately torn frame); normal
    traffic must go through {!enqueue} or {!post}. *)

module As_mailbox : Qs_queues.Mailbox.S with type 'a t = 'a t
(** [Qs_queues.Mailbox.S] view of the transport ([close] is
    {!close_writer}).  Blocking flavour: [dequeue]/[drain] yield until a
    message or end-of-stream arrives. *)
