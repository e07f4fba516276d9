(** Promises: deferred query results ("issue the packaged call now,
    collect the result later").

    A promise is an {!Ivar} plus the machinery pipelined queries need:
    non-blocking observation, completion callbacks for trace spans,
    fan-in combinators, and a one-shot force hook through which the
    SCOOP runtime accounts the first client rendezvous.  Any number of
    fibers on any domain may {!await}; the single {!fulfill} wakes them
    all.  Obtain promises from {!Scoop.Registration.query_async} (or
    create your own as a general fork/join handle). *)

type 'a t

val create : ?on_force:(bool -> unit) -> unit -> 'a t
(** Fresh unresolved promise.  [on_force] is invoked at most once, on
    the first successful client observation ({!await}, or a {!try_read}
    that returns [Some]); its argument is [true] when the value was
    already resolved at that point (a fully overlapped round trip) and
    [false] when the observer had to block. *)

val of_value : 'a -> 'a t
(** Already-resolved promise. *)

val fulfill : 'a t -> 'a -> unit
(** Resolve the promise and wake all waiters / run all callbacks.
    @raise Invalid_argument if already resolved. *)

val try_fulfill : 'a t -> 'a -> bool
(** Like {!fulfill} but returns [false] instead of raising. *)

val fulfill_error : ?bt:Printexc.raw_backtrace -> 'a t -> exn -> unit
(** Reject the promise: forcing re-raises [e] (with [bt], defaulting to
    the most recent backtrace at the call site).  Waiters are woken and
    completion callbacks consumed just as for {!fulfill}.
    @raise Invalid_argument if already resolved. *)

val try_fulfill_error : ?bt:Printexc.raw_backtrace -> 'a t -> exn -> bool
(** Like {!fulfill_error} but returns [false] instead of raising. *)

val await : ?timeout:float -> 'a t -> 'a
(** Force the promise: return its value, blocking the calling fiber
    until resolved.  Re-raises (with its captured backtrace) if the
    promise was rejected.  The first force fires the [on_force] hook —
    a rejected rendezvous still counts as observed.

    With [?timeout], raises {!Timer.Timeout} if the promise is still
    pending after that many seconds.  A timed-out await is {e not} a
    rendezvous: the hook does not fire, the promise is not consumed, and
    a later [await] can still complete normally. *)

val try_read : 'a t -> 'a option
(** The value if already resolved; never blocks.  A successful
    [try_read] counts as a force ([on_force] fires with [true]).
    Re-raises (and fires the hook) if the promise is already
    rejected. *)

val peek : 'a t -> 'a option
(** Like {!try_read} but purely observational: never fires hooks.
    Still re-raises on a rejected promise. *)

val is_resolved : 'a t -> bool
(** [true] once resolved, whether fulfilled or rejected. *)

val is_rejected : 'a t -> bool

val on_fulfill : 'a t -> ('a -> unit) -> unit
(** [on_fulfill t f] runs [f v] once [t] resolves to [v] — immediately
    if already resolved, otherwise in the fulfiller's context (for
    packaged queries: on the handler fiber, right when the result is
    produced — the hook the runtime uses to close query-pipeline trace
    spans).  Not called on rejection — use {!on_resolve} to observe
    both outcomes.  [f] must not block. *)

val on_resolve : 'a t -> (('a, exn * Printexc.raw_backtrace) result -> unit) -> unit
(** Like {!on_fulfill} but fires on either outcome. *)

(** {2 Combinators}

    Results resolve eagerly as components resolve; forcing a combined
    promise propagates the force (and its readiness flag) to every
    resolved component, so registration synced-status bookkeeping
    observes the underlying rendezvous.  Rejection propagates: the first
    component to reject (or, for {!map}, an [f] that raises) rejects the
    result with that exception; a component still pending at that force
    keeps its hook for its own later force. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** [map f t] resolves to [f v] when [t] resolves to [v] ([f] runs in
    the fulfiller's context). *)

val both : 'a t -> 'b t -> ('a * 'b) t
(** Resolves when both components have. *)

val all : 'a t list -> 'a list t
(** Resolves when every component has, preserving order; [all []] is
    already resolved. *)
