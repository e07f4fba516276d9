(* Tests for the socket-backed message queue (the §7 transport
   exploration): framing, FIFO order, partial reads/writes on messages
   larger than the socket buffer, multiple producers, close semantics,
   deferred sends and hostile headers. *)

module Sq = Qs_remote.Socket_queue
module S = Qs_sched.Sched
module Latch = Qs_sched.Latch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_queue f =
  S.run (fun () ->
    let q = Sq.create () in
    Fun.protect ~finally:(fun () -> Sq.destroy q) (fun () -> f q))

let test_fifo () =
  with_queue (fun q ->
    let received = ref [] in
    S.spawn (fun () ->
      for i = 1 to 100 do
        Sq.enqueue q i
      done;
      Sq.close_writer q);
    let rec drain () =
      match Sq.dequeue q with
      | Some v ->
        received := v :: !received;
        drain ()
      | None -> ()
    in
    drain ();
    Alcotest.(check (list int)) "fifo through the socket"
      (List.init 100 (fun i -> i + 1))
      (List.rev !received))

let test_frame_counters () =
  with_queue (fun q ->
    let n = 100 in
    S.spawn (fun () ->
      for i = 1 to n do
        Sq.enqueue q i
      done;
      Sq.close_writer q);
    let rec drain () =
      match Sq.dequeue q with Some _ -> drain () | None -> ()
    in
    drain ();
    let c = Sq.counters q in
    let v = Qs_obs.Counter.value c in
    check_int "one frame per message sent" n (v "frames_sent");
    check_int "every frame received" n (v "frames_received");
    check_int "both directions saw the same bytes" (v "bytes_sent")
      (v "bytes_received");
    (* Each frame is an 8-byte header plus a marshalled int. *)
    check_bool "bytes cover the headers" true (v "bytes_sent" >= 8 * n))

let test_structured_messages () =
  with_queue (fun q ->
    S.spawn (fun () ->
      Sq.enqueue q (`Row (3, [| 1.5; 2.5 |]));
      Sq.enqueue q (`Done "worker-7");
      Sq.close_writer q);
    (match Sq.dequeue q with
    | Some (`Row (i, a)) ->
      check_int "row index" 3 i;
      check_bool "payload intact" true (a = [| 1.5; 2.5 |])
    | _ -> Alcotest.fail "expected Row");
    (match Sq.dequeue q with
    | Some (`Done who) -> Alcotest.(check string) "who" "worker-7" who
    | _ -> Alcotest.fail "expected Done");
    check_bool "drained" true (Sq.dequeue q = None))

let test_large_messages () =
  (* Bigger than any default socket buffer: exercises partial writes on
     the producer and reassembly on the consumer. *)
  with_queue (fun q ->
    let big = Array.init 200_000 (fun i -> i) in
    S.spawn (fun () ->
      Sq.enqueue q big;
      Sq.enqueue q (Array.map (fun x -> -x) big);
      Sq.close_writer q);
    (match Sq.dequeue q with
    | Some a -> check_bool "first intact" true (a = big)
    | None -> Alcotest.fail "missing first");
    (match Sq.dequeue q with
    | Some a -> check_bool "second intact" true (a.(7) = -7)
    | None -> Alcotest.fail "missing second"))

let test_copy_semantics () =
  (* Marshalling copies: mutating the sender's array after enqueue must
     not affect the received message — the "expanded class" copying the
     transport gives for free. *)
  with_queue (fun q ->
    let payload = [| 1; 2; 3 |] in
    S.spawn (fun () ->
      Sq.enqueue q payload;
      payload.(0) <- 99;
      Sq.close_writer q);
    match Sq.dequeue q with
    | Some a -> check_int "receiver kept the copy" 1 a.(0)
    | None -> Alcotest.fail "missing message")

let test_multiple_producers () =
  with_queue (fun q ->
    let producers = 4 and per = 200 in
    let latch = Latch.create producers in
    for p = 1 to producers do
      S.spawn (fun () ->
        for i = 1 to per do
          Sq.enqueue q ((p * 1000) + i)
        done;
        Latch.count_down latch)
    done;
    S.spawn (fun () ->
      Latch.wait latch;
      Sq.close_writer q);
    let count = ref 0 and sum = ref 0 in
    let rec drain () =
      match Sq.dequeue q with
      | Some v ->
        incr count;
        sum := !sum + v;
        drain ()
      | None -> ()
    in
    drain ();
    check_int "all frames arrived" (producers * per) !count;
    let expected =
      List.fold_left ( + ) 0
        (List.concat_map
           (fun p -> List.init per (fun i -> (p * 1000) + i + 1))
           [ 1; 2; 3; 4 ])
    in
    check_int "no frame corruption" expected !sum)

let test_enqueue_after_close () =
  with_queue (fun q ->
    Sq.enqueue q 1;
    Sq.close_writer q;
    check_bool "raises" true
      (try
         Sq.enqueue q 2;
         false
       with Sq.Closed -> true);
    check_bool "pending delivered" true (Sq.dequeue q = Some 1);
    check_bool "then eof" true (Sq.dequeue q = None))

let test_ping_pong () =
  (* Two socket queues as a bidirectional channel between fibers. *)
  with_queue (fun there ->
    let back = Sq.create () in
    Fun.protect ~finally:(fun () -> Sq.destroy back) (fun () ->
      S.spawn (fun () ->
        let rec serve () =
          match Sq.dequeue there with
          | Some v ->
            Sq.enqueue back (v * 2);
            serve ()
          | None -> Sq.close_writer back
        in
        serve ());
      for i = 1 to 50 do
        Sq.enqueue there i
      done;
      Sq.close_writer there;
      let acc = ref 0 in
      let rec drain () =
        match Sq.dequeue back with
        | Some v ->
          acc := !acc + v;
          drain ()
        | None -> ()
      in
      drain ();
      check_int "round trips" (2 * (50 * 51 / 2)) !acc))

let write_raw fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        S.yield ();
        go off
  in
  go 0

let test_truncated_frame () =
  (* A writer that dies mid-frame must surface as [Truncated_frame], not
     as a clean end-of-stream: send one good message, then a frame header
     promising more bytes than will ever arrive, then close the write
     side. *)
  with_queue (fun q ->
    let _, write_fd = Sq.fds q in
    S.spawn (fun () ->
      Sq.enqueue q 42;
      let torn = Bytes.create 10 in
      Bytes.set_int64_le torn 0 1000L (* header: 1000-byte payload *);
      write_raw write_fd torn (* ...but only 2 bytes of it follow *);
      Sq.close_writer q);
    check_bool "good frame still delivered" true (Sq.dequeue q = Some 42);
    check_bool "torn frame raises" true
      (try
         ignore (Sq.dequeue q : int option);
         false
       with Sq.Truncated_frame -> true);
    let v = Qs_obs.Counter.value (Sq.counters q) in
    check_int "counted once" 1 (v "truncated_frames");
    check_bool "raises again on retry" true
      (try
         ignore (Sq.dequeue q : int option);
         false
       with Sq.Truncated_frame -> true);
    check_int "still counted once" 1 (v "truncated_frames"))

let test_header_only_truncation () =
  (* The smallest torn stream: EOF after a few header bytes. *)
  with_queue (fun q ->
    let _, write_fd = Sq.fds q in
    S.spawn (fun () ->
      write_raw write_fd (Bytes.make 3 'x');
      Sq.close_writer q);
    check_bool "raises" true
      (try
         ignore (Sq.dequeue q : int option);
         false
       with Sq.Truncated_frame -> true))

(* -- Deferred sends ([post]) and hostile input ----------------------------- *)

let test_post_concurrent_producers () =
  (* Posters on two domains, yielding now and then so their bursts
     interleave: every message arrives intact, and each producer's
     messages arrive in the order it posted them. *)
  S.run ~domains:2 (fun () ->
    let q = Sq.create () in
    Fun.protect ~finally:(fun () -> Sq.destroy q) (fun () ->
      let producers = 4 and per = 500 in
      let latch = Latch.create producers in
      for p = 0 to producers - 1 do
        S.spawn (fun () ->
          for i = 0 to per - 1 do
            Sq.post q (p, i, String.make (i mod 37) 'x');
            if i mod 7 = 0 then S.yield ()
          done;
          Latch.count_down latch)
      done;
      S.spawn (fun () ->
        Latch.wait latch;
        Sq.close_writer q);
      let next = Array.make producers 0 in
      let rec drain () =
        match Sq.dequeue q with
        | Some (p, i, pad) ->
          check_int "per-producer FIFO" next.(p) i;
          check_int "payload intact" (i mod 37) (String.length pad);
          next.(p) <- i + 1;
          drain ()
        | None -> ()
      in
      drain ();
      Array.iter (check_int "every message arrived" per) next))

let test_post_backpressure () =
  (* Nobody reads: the poster buffers up to the cap, flushes inline,
     fills the kernel buffer and parks.  Once the reader starts,
     everything arrives in order. *)
  with_queue (fun q ->
    let n = 2048 and size = 4096 in
    let posted = ref 0 in
    S.spawn (fun () ->
      for i = 0 to n - 1 do
        Sq.post q (i, Bytes.make size 'p');
        incr posted
      done;
      Sq.close_writer q);
    S.sleep 0.05;
    check_bool "poster blocked before posting everything" true (!posted < n);
    let v = Qs_obs.Counter.value (Sq.counters q) in
    check_bool "it parked on writability" true (v "would_blocks" > 0);
    check_bool "bounded user-space buffering" true
      ((!posted * size) - v "bytes_sent" <= Sq.out_cap + size + 64);
    let rec drain i =
      match Sq.dequeue q with
      | Some (j, b) ->
        check_int "in order" i j;
        check_int "intact" size (Bytes.length b);
        drain (i + 1)
      | None -> i
    in
    check_int "everything arrived" n (drain 0))

let test_post_one_write_per_burst () =
  with_queue (fun q ->
    for i = 1 to 16 do
      Sq.post q i
    done;
    let v () = Qs_obs.Counter.value (Sq.counters q) in
    check_int "nothing written before the poster suspends" 0 (v () "writes");
    S.yield ();
    check_int "16 posts, one write" 1 (v () "writes");
    check_int "16 frames sent" 16 (v () "frames_sent");
    for i = 1 to 16 do
      check_bool "delivered in order" true (Sq.dequeue q = Some i)
    done)

let test_post_deferred_failure () =
  (* The peer is gone before the burst's flush runs: the flush has no
     caller to raise into, so it marks the queue failed — later sends
     raise [Closed] — and runs the failure hook, once. *)
  S.run (fun () ->
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let failures = ref 0 in
    let q =
      Sq.of_fds ~on_failure:(fun () -> incr failures) ~read_fd:a ~write_fd:a
        ()
    in
    Unix.close b;
    Fun.protect ~finally:(fun () -> Sq.destroy q) (fun () ->
      Sq.post q 1;
      Sq.post q 2;
      check_int "nothing failed yet" 0 !failures;
      S.yield ();
      check_int "the deferred flush reported the failure" 1 !failures;
      let raises f =
        try
          f ();
          false
        with Sq.Closed -> true
      in
      check_bool "post raises Closed" true (raises (fun () -> Sq.post q 3));
      check_bool "enqueue raises Closed" true
        (raises (fun () -> Sq.enqueue q 4));
      check_int "hook ran once" 1 !failures))

let test_enqueue_flushes_posts () =
  (* [enqueue] stays synchronous, and carries earlier posts with it. *)
  with_queue (fun q ->
    Sq.post q 1;
    Sq.post q 2;
    Sq.enqueue q 3;
    check_int "one write for all three" 1
      (Qs_obs.Counter.value (Sq.counters q) "writes");
    Sq.close_writer q;
    let got = List.init 3 (fun _ -> Sq.dequeue q) in
    check_bool "in order" true (got = [ Some 1; Some 2; Some 3 ]))

let test_hostile_headers () =
  (* A negative length and one far above the frame ceiling are both
     rejected before any allocation of that size, and counted. *)
  List.iter
    (fun len ->
      with_queue (fun q ->
        let _, write_fd = Sq.fds q in
        let hdr = Bytes.create 8 in
        Bytes.set_int64_le hdr 0 len;
        write_raw write_fd hdr;
        let raised () =
          match (Sq.dequeue q : int option) with
          | _ -> false
          | exception Sq.Bad_frame n -> n = Int64.to_int len
        in
        check_bool "rejected" true (raised ());
        check_bool "rejected again on retry" true (raised ());
        check_int "counted once" 1
          (Qs_obs.Counter.value (Sq.counters q) "bad_frames")))
    [ -1L; Int64.shift_left 1L 40 ]

let prop_any_payload =
  QCheck2.Test.make ~count:50 ~name:"arbitrary int lists survive the socket"
    QCheck2.Gen.(list (list small_int))
    (fun messages ->
      S.run (fun () ->
        let q = Sq.create () in
        Fun.protect ~finally:(fun () -> Sq.destroy q) (fun () ->
          S.spawn (fun () ->
            List.iter (Sq.enqueue q) messages;
            Sq.close_writer q);
          let rec drain acc =
            match Sq.dequeue q with
            | Some v -> drain (v :: acc)
            | None -> List.rev acc
          in
          drain [] = messages)))


(* -- Distributed runtime: remote processors over the socket transport --

   Node and client run in one test process but across two schedulers on
   two domains, talking through a real unix-domain socket — the same
   code path as the two-process deployment.  Handler state lives in
   module-level globals: shipped closures reference globals by symbol
   (Marshal.Closures), which is the distributed runtime's state
   discipline. *)

module Proto = Scoop.Internal.Remote_proto

let remote_counter = Atomic.make 0

let next_sock =
  let n = Atomic.make 0 in
  fun () ->
    Printf.sprintf "%s/qs_rt_%d_%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
      (Atomic.fetch_and_add n 1)

(* Host a node on a fresh unix socket in its own domain; [f addr] runs
   client-side and must ask the node to shut down before returning
   (the [with_client] helper does). *)
let with_node f =
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let node = Domain.spawn (fun () -> Scoop.Remote.listen addr) in
  Fun.protect ~finally:(fun () -> Domain.join node) (fun () -> f addr)

let with_client addr f =
  Scoop.Runtime.run
    ~config:(Scoop.Remote.connect [ addr ])
    (fun rt ->
      Fun.protect
        ~finally:(fun () -> Scoop.Runtime.shutdown_nodes rt)
        (fun () -> f rt))

let test_remote_round_trip () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      Atomic.set remote_counter 0;
      let p = Scoop.Runtime.processor rt in
      check_bool "runtime knows it is remote" true (Scoop.Runtime.is_remote rt);
      let total =
        Scoop.Runtime.separate rt p (fun reg ->
          for _ = 1 to 100 do
            Scoop.Registration.call reg (fun () -> Atomic.incr remote_counter)
          done;
          Scoop.Registration.sync reg;
          Scoop.Registration.query reg (fun () -> Atomic.get remote_counter))
      in
      check_int "100 remote calls served before the query" 100 total;
      let s = Scoop.Stats.snapshot (Scoop.Runtime.stats rt) in
      check_bool "remote requests counted" true
        (s.Scoop.Stats.s_remote_requests >= 102);
      check_bool "remote replies counted" true
        (s.Scoop.Stats.s_remote_replies >= 2);
      check_int "no failures" 0 s.Scoop.Stats.s_remote_failures))

let test_remote_poison () =
  (* The dirty-processor rule across the connection: a failing remote
     call poisons the registration; the next sync point surfaces
     [Handler_failure] carrying the node's rendering of the original. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let observed =
        try
          Scoop.Runtime.separate rt p (fun reg ->
            Scoop.Registration.call reg (fun () -> failwith "boom");
            ignore (Scoop.Registration.query reg (fun () -> 1) : int);
            `No_failure)
        with
        | Scoop.Handler_failure (_, Scoop.Remote_error msg) -> `Poisoned msg
        | Scoop.Handler_failure (_, e) -> `Wrong_payload (Printexc.to_string e)
      in
      match observed with
      | `Poisoned msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        check_bool "carries the original failure text" true (contains msg "boom")
      | `No_failure -> Alcotest.fail "poison never surfaced"
      | `Wrong_payload e -> Alcotest.fail ("unexpected payload: " ^ e)))

let test_remote_query_failure_no_poison () =
  (* A raising query producer rejects only its own rendezvous. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let v =
        Scoop.Runtime.separate rt p (fun reg ->
          (match Scoop.Registration.query reg (fun () -> failwith "q") with
          | (_ : int) -> Alcotest.fail "query should have raised"
          | exception Scoop.Remote_error _ -> ());
          Scoop.Registration.query reg (fun () -> 41 + 1))
      in
      check_int "registration survives a failed query" 42 v))

let test_remote_pipelined () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let ok =
        Scoop.Runtime.separate rt p (fun reg ->
          let promises =
            List.init 16 (fun i ->
              Scoop.Registration.query_async reg (fun () -> i * i))
          in
          List.mapi
            (fun i pr -> Scoop.Promise.await pr = i * i)
            promises
          |> List.for_all Fun.id)
      in
      check_bool "16 pipelined remote queries" true ok))

let test_remote_writes_per_burst () =
  (* The client's write count: a blocking query writes once, and a
     burst of 16 pipelined queries shares one write. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let writes () =
        (Scoop.Stats.snapshot (Scoop.Runtime.stats rt)).Scoop.Stats
          .s_remote_writes
      in
      Scoop.Runtime.separate rt p (fun reg ->
        ignore (Scoop.Registration.query reg (fun () -> 0) : int);
        let w0 = writes () in
        for i = 1 to 20 do
          check_int "blocking result" i
            (Scoop.Registration.query reg (fun () -> i))
        done;
        let w1 = writes () in
        check_int "one write per blocking query" 20 (w1 - w0);
        let promises =
          List.init 16 (fun i ->
            Scoop.Registration.query_async reg (fun () -> i))
        in
        List.iteri
          (fun i pr -> check_int "pipelined result" i (Scoop.Promise.await pr))
          promises;
        check_int "16 pipelined queries, one write" 1 (writes () - w1))))

let test_remote_timeout () =
  with_node (fun addr ->
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let late =
        Scoop.Runtime.separate rt p (fun reg ->
          Scoop.Registration.call reg (fun () -> Unix.sleepf 0.3);
          (match Scoop.Registration.query ~timeout:0.05 reg (fun () -> 0) with
          | (_ : int) -> Alcotest.fail "expected Timeout"
          | exception Scoop.Timeout -> ());
          (* The abandoned request is still served; the registration
             stays usable and an unbounded query completes. *)
          Scoop.Registration.query reg (fun () -> 7))
      in
      check_int "registration usable after a remote timeout" 7 late))

let test_remote_disconnect_mid_query () =
  (* A peer that dies with a query outstanding must produce a typed
     rejection, not a hang: the rogue node accepts, swallows a few
     bytes, and slams the connection. *)
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let rogue =
    Domain.spawn (fun () ->
      let fd, _ = Unix.accept lfd in
      let buf = Bytes.create 64 in
      ignore (Unix.read fd buf 0 64 : int);
      Unix.close fd;
      Unix.close lfd)
  in
  Scoop.Runtime.run
    ~config:(Scoop.Remote.connect [ addr ])
    (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let ok =
        try
          Scoop.Runtime.separate rt p (fun reg ->
            ignore (Scoop.Registration.query reg (fun () -> 1) : int);
            false)
        with
        | Scoop.Connection_lost _ -> true
        | Scoop.Handler_failure (_, Scoop.Connection_lost _) -> true
      in
      check_bool "typed rejection, not a hang" true ok;
      let s = Scoop.Stats.snapshot (Scoop.Runtime.stats rt) in
      check_bool "connection loss counted" true
        (s.Scoop.Stats.s_remote_failures >= 1));
  Domain.join rogue;
  try Unix.unlink path with Unix.Unix_error _ -> ()

let test_remote_node_survives_garbage () =
  (* Truncated-frame recovery, node side: a peer that handshakes then
     dies mid-frame must cost the node that connection only — the next
     client gets normal service. *)
  with_node (fun addr ->
    S.run (fun () ->
      let fd = Proto.connect_to addr in
      let sq : Proto.client_msg Sq.t =
        Sq.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
      in
      Sq.enqueue sq (Proto.hello ());
      (* Frame header promising 1000 bytes, followed by 3 and EOF. *)
      let torn = Bytes.create 11 in
      Bytes.set_int64_le torn 0 1000L;
      write_raw fd torn;
      Unix.close fd);
    with_client addr (fun rt ->
      let p = Scoop.Runtime.processor rt in
      let v =
        Scoop.Runtime.separate rt p (fun reg ->
          Scoop.Registration.query reg (fun () -> 2026))
      in
      check_int "node still serving after a torn peer" 2026 v))

let test_remote_pipelined_disconnect () =
  (* The pipelined twin of [disconnect mid-query]: the rogue node reads
     the handshake, the Open and all 16 queries, then slams the
     connection.  Every outstanding promise is rejected with
     [Connection_lost]; none hangs. *)
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let read_exactly fd n =
    let b = Bytes.create n in
    let rec go off =
      if off < n then
        match Unix.read fd b off (n - off) with
        | 0 -> failwith "client closed early"
        | k -> go (off + k)
    in
    go 0;
    b
  in
  let rogue =
    Domain.spawn (fun () ->
      let fd, _ = Unix.accept lfd in
      (* Hello + Open + 16 Rquery frames. *)
      for _ = 1 to 18 do
        let hdr = read_exactly fd 8 in
        ignore (read_exactly fd (Int64.to_int (Bytes.get_int64_le hdr 0)))
      done;
      Unix.close fd;
      Unix.close lfd)
  in
  let outcomes =
    Scoop.Runtime.run
      ~config:(Scoop.Remote.connect [ addr ])
      (fun rt ->
        let p = Scoop.Runtime.processor rt in
        let outcomes = ref [] in
        (try
           Scoop.Runtime.separate rt p (fun reg ->
             let promises =
               List.init 16 (fun i ->
                 Scoop.Registration.query_async reg (fun () -> i))
             in
             outcomes :=
               List.map
                 (fun pr ->
                   match Scoop.Promise.await ~timeout:10.0 pr with
                   | (_ : int) -> `Value
                   | exception Scoop.Connection_lost _ -> `Lost
                   | exception Scoop.Timeout -> `Hung
                   | exception e -> `Other (Printexc.to_string e))
                 promises)
         with
        | Scoop.Connection_lost _ -> ()
        | Scoop.Handler_failure (_, Scoop.Connection_lost _) -> ());
        !outcomes)
  in
  Domain.join rogue;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  check_int "16 outcomes" 16 (List.length outcomes);
  check_bool "every promise rejected with Connection_lost" true
    (List.for_all (( = ) `Lost) outcomes)

let test_remote_node_rejects_hostile_headers () =
  (* A header claiming a negative or gigantic payload costs the node
     that connection only — it never allocates the claimed size — and
     the node's [remote_bad_frames] counts each.  The node is hosted
     in-process so its runtime's counters are readable here. *)
  let path = next_sock () in
  let addr = Scoop.Config.Unix_sock path in
  let bad, served =
    Scoop.Runtime.run ~domains:2 (fun _ ->
      let node_rt =
        Scoop.Runtime.create
          ~config:Scoop.Config.(qoq |> with_listen addr)
          ()
      in
      let stopped = Qs_sched.Ivar.create () in
      S.spawn (fun () ->
        Scoop.Internal.Node.serve node_rt addr;
        Qs_sched.Ivar.fill stopped ());
      while not (Sys.file_exists path) do
        S.yield ()
      done;
      List.iter
        (fun len ->
          let fd = Proto.connect_to addr in
          let out : Proto.client_msg Sq.t =
            Sq.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
          in
          let back : Proto.node_msg Sq.t =
            Sq.of_fds ~flags:[ Marshal.Closures ] ~read_fd:fd ~write_fd:fd ()
          in
          Sq.enqueue out (Proto.hello ());
          let hdr = Bytes.create 8 in
          Bytes.set_int64_le hdr 0 len;
          write_raw fd hdr;
          check_bool "node drops the connection" true (Sq.dequeue back = None);
          Unix.close fd)
        [ -1L; Int64.shift_left 1L 40 ];
      let client_rt =
        Scoop.Runtime.create ~config:(Scoop.Remote.connect [ addr ]) ()
      in
      let p = Scoop.Runtime.processor client_rt in
      let v =
        Scoop.Runtime.separate client_rt p (fun reg ->
          Scoop.Registration.query reg (fun () -> 2026))
      in
      Scoop.Runtime.shutdown_nodes client_rt;
      Scoop.Runtime.shutdown client_rt;
      Qs_sched.Ivar.read stopped;
      Scoop.Runtime.shutdown node_rt;
      let s = Scoop.Stats.snapshot (Scoop.Runtime.stats node_rt) in
      (s.Scoop.Stats.s_remote_bad_frames, v))
  in
  check_int "node still serving after both headers" 2026 served;
  check_int "both rejections counted" 2 bad

(* Two shard-mapped nodes: processor id routes to node id mod 2, and the
   same workload spreads across both without client changes. *)
let test_remote_shard_map () =
  let path1 = next_sock () and path2 = next_sock () in
  let a1 = Scoop.Config.Unix_sock path1
  and a2 = Scoop.Config.Unix_sock path2 in
  let n1 = Domain.spawn (fun () -> Scoop.Remote.listen a1) in
  let n2 = Domain.spawn (fun () -> Scoop.Remote.listen a2) in
  Fun.protect
    ~finally:(fun () ->
      Domain.join n1;
      Domain.join n2)
    (fun () ->
      Scoop.Runtime.run
        ~config:(Scoop.Remote.connect [ a1; a2 ])
        (fun rt ->
          Fun.protect
            ~finally:(fun () -> Scoop.Runtime.shutdown_nodes rt)
            (fun () ->
              let procs = Scoop.Runtime.processors rt 4 in
              let vs =
                List.mapi
                  (fun i p ->
                    Scoop.Runtime.separate rt p (fun reg ->
                      Scoop.Registration.query reg (fun () -> i * 10)))
                  procs
              in
              Alcotest.(check (list int))
                "all four processors answer across two nodes"
                [ 0; 10; 20; 30 ] vs)))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_mixed_reservation_rejected () =
  (* Atomic multi-reservation is a local protocol (the wait/release pair
     spans handler queues the client enqueues into directly) and remote
     proxies cannot take part.  Passing one must fail with a typed
     [Scoop.Remote_error] naming the offending processors — raised
     before anything local is reserved, so neither side is left
     wedged. *)
  with_node (fun addr ->
    with_client addr (fun rt ->
      let remote_p = Scoop.Runtime.processor rt in
      let local_rt = Scoop.Runtime.create () in
      let local_p = Scoop.Runtime.processor local_rt in
      Fun.protect
        ~finally:(fun () -> Scoop.Runtime.shutdown local_rt)
        (fun () ->
          (match
             Scoop.Runtime.separate_list rt [ local_p; remote_p ] (fun _ ->
               `Reserved)
           with
          | `Reserved -> Alcotest.fail "mixed reservation must be refused"
          | exception Scoop.Remote_error msg ->
            check_bool "names the remote processor" true
              (contains msg (string_of_int (Scoop.Processor.id remote_p))));
          (* nothing was left reserved on either side *)
          let v =
            Scoop.Runtime.separate local_rt local_p (fun reg ->
              Scoop.Registration.query reg (fun () -> 7))
          in
          check_int "local processor still serves" 7 v;
          let w =
            Scoop.Runtime.separate rt remote_p (fun reg ->
              Scoop.Registration.query reg (fun () -> 8))
          in
          check_int "remote processor still serves" 8 w;
          (* an all-remote pair is refused the same way *)
          let remote_p2 = Scoop.Runtime.processor rt in
          match
            Scoop.Runtime.separate2 rt remote_p remote_p2 (fun _ _ ->
              `Reserved)
          with
          | `Reserved -> Alcotest.fail "all-remote pair must be refused"
          | exception Scoop.Remote_error msg ->
            check_bool "names both remote processors" true
              (contains msg (string_of_int (Scoop.Processor.id remote_p))
              && contains msg (string_of_int (Scoop.Processor.id remote_p2))))))

let prop_remote_timeout_equiv =
  QCheck2.Test.make ~count:6
    ~name:"generous timeout = no timeout over the remote preset"
    QCheck2.Gen.(list_size (int_range 0 16) small_int)
    (fun xs ->
      with_node (fun addr ->
        with_client addr (fun rt ->
          let p = Scoop.Runtime.processor rt in
          Scoop.Runtime.separate rt p (fun reg ->
            let sum xs = List.fold_left ( + ) 0 xs in
            let a = Scoop.Registration.query reg (fun () -> sum xs) in
            let b =
              Scoop.Registration.query ~timeout:10.0 reg (fun () -> sum xs)
            in
            a = b && a = sum xs))))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qs_remote"
    [
      ( "socket queue",
        [
          Alcotest.test_case "fifo" `Quick test_fifo;
          Alcotest.test_case "frame counters" `Quick test_frame_counters;
          Alcotest.test_case "structured messages" `Quick test_structured_messages;
          Alcotest.test_case "large messages" `Quick test_large_messages;
          Alcotest.test_case "copy semantics" `Quick test_copy_semantics;
          Alcotest.test_case "multiple producers" `Quick test_multiple_producers;
          Alcotest.test_case "enqueue after close" `Quick test_enqueue_after_close;
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          Alcotest.test_case "truncated frame" `Quick test_truncated_frame;
          Alcotest.test_case "header-only truncation" `Quick
            test_header_only_truncation;
          Alcotest.test_case "post: concurrent producers" `Quick
            test_post_concurrent_producers;
          Alcotest.test_case "post: backpressure" `Quick test_post_backpressure;
          Alcotest.test_case "post: one write per burst" `Quick
            test_post_one_write_per_burst;
          Alcotest.test_case "post: deferred failure" `Quick
            test_post_deferred_failure;
          Alcotest.test_case "enqueue flushes posts" `Quick
            test_enqueue_flushes_posts;
          Alcotest.test_case "hostile headers" `Quick test_hostile_headers;
        ] );
      ( "distributed runtime",
        [
          Alcotest.test_case "remote round trip" `Quick test_remote_round_trip;
          Alcotest.test_case "remote poison" `Quick test_remote_poison;
          Alcotest.test_case "failed query does not poison" `Quick
            test_remote_query_failure_no_poison;
          Alcotest.test_case "pipelined remote queries" `Quick
            test_remote_pipelined;
          Alcotest.test_case "writes per burst" `Quick
            test_remote_writes_per_burst;
          Alcotest.test_case "remote timeout" `Quick test_remote_timeout;
          Alcotest.test_case "disconnect mid-query" `Quick
            test_remote_disconnect_mid_query;
          Alcotest.test_case "node survives torn peer" `Quick
            test_remote_node_survives_garbage;
          Alcotest.test_case "pipelined disconnect" `Quick
            test_remote_pipelined_disconnect;
          Alcotest.test_case "node rejects hostile headers" `Quick
            test_remote_node_rejects_hostile_headers;
          Alcotest.test_case "static shard map" `Quick test_remote_shard_map;
          Alcotest.test_case "mixed local/remote reservation rejected" `Quick
            test_mixed_reservation_rejected;
        ] );
      ("properties", [ qc prop_any_payload; qc prop_remote_timeout_equiv ]);
    ]
