(* The SCOOP/Qs request-path benchmark: four workloads over the public
   runtime API, end-to-end metrics from untraced runs, per-layer metrics
   from counters and from a separate traced pass.

     qsbench.exe --workload rpc|stream|serve|remote --seed N --seconds S
                 --trace 0|1

   With [--trace 0] the last stdout line is a JSON object carrying the
   end-to-end metrics; with [--trace 1] it carries the per-layer metrics.
   Lines before it are a human-readable report with sample counts.
   README.md in this directory explains every workload and metric. *)

module Clock = Qs_obs.Clock
module Hist = Qs_obs.Histogram
module R = Scoop.Runtime
module Reg = Scoop.Registration
module Stats = Scoop.Stats
module Sched = Qs_sched.Sched
module Ivar = Qs_sched.Ivar
module Promise = Scoop.Promise

let now = Clock.now_ns

(* An untraced run is [rounds] rounds, each a fresh runtime: set-up,
   warm-up, then a timed pass cut into windows of [window_ns].  Each
   end-to-end metric is the median of its per-window values over all
   rounds, and [setup_s] the median of the rounds' set-up times.  On a
   shared virtual host, stolen CPU time and busy neighbours slow whole
   stretches of a run; short windows and a median keep those stretches
   out of the reported figure. *)
let rounds = 10
let window_ns = 50_000_000

(* Span capacity of one client in the traced pass; the pass ends early
   when it is reached. *)
let span_cap = 200_000

(* ---- growable int vectors (samples and spans) ---- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = Array.unsafe_get v.a i
end

(* ---- spans recorded by the benchmark around calls into each layer ---- *)

let k_separate = 0
let k_call = 1
let k_query = 2
let k_query_async = 3
let k_await = 4
let k_sleep = 5

let kind_names =
  [| "separate"; "registration.call"; "registration.query";
     "registration.query_async"; "promise.await"; "sched.sleep" |]

type spans = {
  on : bool;
  mutable op : int;  (** id of the operation being recorded *)
  ops : Vec.t;
  kinds : Vec.t;
  starts : Vec.t;
  stops : Vec.t;
}

let make_spans on =
  let cap = if on then span_cap + 256 else 0 in
  { on; op = 0; ops = Vec.create cap; kinds = Vec.create cap;
    starts = Vec.create cap; stops = Vec.create cap }

let[@inline] enter sp = if sp.on then now () else 0

let[@inline] leave sp kind t0 =
  if sp.on then begin
    Vec.push sp.ops sp.op;
    Vec.push sp.kinds kind;
    Vec.push sp.starts t0;
    Vec.push sp.stops (now ())
  end

let spans_full sp = sp.on && sp.ops.Vec.n >= span_cap

(* ---- statistics ---- *)

(* Nearest-rank quantile of a sorted array. *)
let rank_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

(* Mean of the samples ranked within half a percent of quantile [q]:
   as robust as the nearest rank, without snapping every reading to one
   integer nanosecond. *)
let band_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let lo = max 0 (int_of_float (floor ((q -. 0.005) *. float n))) in
    let hi = max lo (min (n - 1) (int_of_float (ceil ((q +. 0.005) *. float n)) - 1)) in
    let sum = ref 0.0 in
    for i = lo to hi do
      sum := !sum +. float sorted.(i)
    done;
    !sum /. float (hi - lo + 1)
  end

let median_float xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float a /. float b

(* Histogram window delta, and a quantile interpolated inside the
   bucket (the library's [quantile] reports the bucket's upper bound). *)
let dist_diff (a : Hist.dist) (b : Hist.dist) : Hist.dist =
  { counts = Array.map2 ( - ) a.counts b.counts; total = a.total - b.total;
    sum = a.sum - b.sum; overflow = a.overflow - b.overflow }

let dist_quantile (d : Hist.dist) q =
  if d.total <= 0 then 0.0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float d.total))) in
    let rec go i seen =
      if i >= Array.length d.counts then float Hist.max_value
      else
        let c = d.counts.(i) in
        if seen + c >= target then
          let lo = if i = 0 then 0 else Hist.bound_of_index (i - 1) + 1 in
          let hi = Hist.bound_of_index i in
          let frac = float (target - seen) /. float c in
          float lo +. (frac *. float (hi - lo + 1)) -. 0.5
        else go (i + 1) (seen + c)
    in
    go 0 0
  end

(* ---- failures ---- *)

(* A timeout, overload, handler failure or lost connection fails the
   operation; it is counted and its latency recorded as [failed_ns], so
   it misses every latency limit. *)
let failed_ns = max_int

let is_failure = function
  | Scoop.Timeout | Scoop.Overloaded _ | Scoop.Handler_failure _
  | Scoop.Remote_error _ | Scoop.Connection_lost _ ->
    true
  | _ -> false

(* ---- inputs ---- *)

(* Values added by operations: seed-derived, positive, per client. *)
let values ~seed ~round ~client n =
  let rng = Random.State.make [| seed; round; client |] in
  Array.init n (fun _ -> 1 + Random.State.int rng 1000)

let n_values = 4096

(* ---- one timed pass ---- *)

type client = {
  lat : Vec.t;  (** latency of each operation, ns *)
  marks : int array;  (** [marks.(w)]: index of window [w]'s first sample *)
  first : int array;  (** [first.(w)]: first completion in window [w] (0: none) *)
  last : int array;  (** [last.(w)]: last completion in window [w] *)
  sp : spans;
  mutable attempted : int;
  mutable failed : int;
  mutable last_ns : int;  (** when the client's last operation ended *)
  late : Vec.t;  (** open-loop generator lateness per request, ns *)
}

let make_client ~traced ~expect ~nwin =
  { lat = Vec.create expect; marks = Array.make (nwin + 1) 0;
    first = Array.make nwin 0; last = Array.make nwin 0;
    sp = make_spans traced; attempted = 0; failed = 0; last_ns = 0;
    late = Vec.create 0 }

type delta = {
  d_stats : Stats.snapshot;
  d_sched : Sched.counters;
  d_minor_words : float;
  d_minor_gcs : int;
  d_hist : (string * Hist.dist) list;
}

let sched_zero : Sched.counters =
  { c_executed = 0; c_handoffs = 0; c_steals = 0; c_parks = 0;
    c_timer_arms = 0; c_timer_fires = 0; c_pool_drains = 0;
    c_pool_migrations = 0; c_pool_idle_shrinks = 0 }

let sched_sub (a : Sched.counters) (b : Sched.counters) : Sched.counters =
  { c_executed = a.c_executed - b.c_executed;
    c_handoffs = a.c_handoffs - b.c_handoffs;
    c_steals = a.c_steals - b.c_steals; c_parks = a.c_parks - b.c_parks;
    c_timer_arms = a.c_timer_arms - b.c_timer_arms;
    c_timer_fires = a.c_timer_fires - b.c_timer_fires;
    c_pool_drains = a.c_pool_drains - b.c_pool_drains;
    c_pool_migrations = a.c_pool_migrations - b.c_pool_migrations;
    c_pool_idle_shrinks = a.c_pool_idle_shrinks - b.c_pool_idle_shrinks }

let hist_names = [ "queue_wait_ns"; "exec_ns"; "query_remote_ns"; "pipelined_remote_ns" ]

(* Counter, histogram, scheduler and GC readings over every runtime the
   workload crosses ([remote] adds the node's runtime). *)
let read_probe runtimes =
  let stats = List.map (fun rt -> Stats.snapshot (R.stats rt)) runtimes in
  let sched = Option.value (R.sched_counters ()) ~default:sched_zero in
  let hist =
    List.map
      (fun name ->
        ( name,
          List.fold_left
            (fun acc rt -> Hist.merge acc (Hist.dist (Stats.histograms (R.stats rt)) name))
            Hist.zero runtimes ))
      hist_names
  in
  let g = Gc.quick_stat () in
  (stats, sched, hist, g)

let probe_delta runtimes (s0, c0, h0, g0) =
  let s1, c1, h1, g1 = read_probe runtimes in
  (* [Stats] offers only [diff]; a + b = a - (0 - b). *)
  let add a b = Stats.diff a (Stats.diff (Stats.diff b b) b) in
  let sum_stats = function [] -> assert false | x :: rest -> List.fold_left add x rest in
  {
    d_stats = Stats.diff (sum_stats s1) (sum_stats s0);
    d_sched = sched_sub c1 c0;
    d_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    d_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    d_hist = List.map2 (fun (n, a) (_, b) -> (n, dist_diff a b)) h1 h0;
  }

type pass = {
  clients : client array;
  start : int;
  nwin : int;  (** windows in the pass *)
  elapsed_ns : int;
  delta : delta;
}

(* Closed loop: every client runs [op] back to back until the window
   closes (or its span buffer fills, in the traced pass). *)
let closed_pass runtimes ~nclients ~traced ~seconds ~expect op =
  let dur_ns = int_of_float (seconds *. 1e9) in
  let nwin = max 1 (dur_ns / window_ns) in
  let win_ns = dur_ns / nwin in
  let clients = Array.init nclients (fun _ -> make_client ~traced ~expect ~nwin) in
  let p0 = read_probe runtimes in
  let start = now () in
  let stop = start + (nwin * win_ns) in
  let finished = Array.map (fun _ -> Ivar.create ()) clients in
  Array.iteri
    (fun i c ->
      Sched.spawn (fun () ->
          let w = ref 0 and edge = ref (start + win_ns) in
          let t = ref (now ()) in
          while !t < stop && not (spans_full c.sp) do
            c.sp.op <- (c.attempted * nclients) + i;
            let ok = match op i c.sp with () -> true | exception e when is_failure e -> false in
            let t1 = now () in
            while !w < nwin && t1 >= !edge do
              incr w;
              c.marks.(!w) <- c.lat.Vec.n;
              edge := !edge + win_ns
            done;
            c.attempted <- c.attempted + 1;
            if ok then begin
              Vec.push c.lat (t1 - !t);
              if !w < nwin then begin
                if c.first.(!w) = 0 then c.first.(!w) <- t1;
                c.last.(!w) <- t1
              end
            end
            else begin
              c.failed <- c.failed + 1;
              Vec.push c.lat failed_ns
            end;
            t := t1
          done;
          while !w < nwin do
            incr w;
            c.marks.(!w) <- c.lat.Vec.n
          done;
          c.last_ns <- !t;
          Ivar.fill finished.(i) ()))
    clients;
  Array.iter Ivar.read finished;
  let delta = probe_delta runtimes p0 in
  let last = Array.fold_left (fun acc c -> max acc c.last_ns) start clients in
  { clients; start; nwin; elapsed_ns = last - start; delta }

(* ---- summaries ---- *)

type e2e = {
  ops_per_s : float;
  p50_us : float;
  p90_us : float;
  samples : int;
  beyond_p50 : int;
  beyond_p90 : int;
  p99_us : float;
  beyond_p99 : int;
  window_ops : float list;  (** operations/s of each window *)
  e_attempted : int;
  e_failed : int;
}

let window_samples pass w =
  Array.concat
    (Array.to_list
       (Array.map
          (fun c -> Array.sub c.lat.Vec.a c.marks.(w) (c.marks.(w + 1) - c.marks.(w)))
          pass.clients))

(* Completions per second in window [w]: completed operations over the
   time between the window's first and last completion, so the rate is
   not quantised to whole operations per window. *)
let window_rate pass w =
  let n = ref 0 and lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun c ->
      for i = c.marks.(w) to c.marks.(w + 1) - 1 do
        if Vec.get c.lat i <> failed_ns then incr n
      done;
      if c.first.(w) <> 0 then begin
        lo := min !lo c.first.(w);
        hi := max !hi c.last.(w)
      end)
    pass.clients;
  if !n < 2 || !hi <= !lo then 0.0 else float (!n - 1) /. (float (!hi - !lo) *. 1e-9)

let beyond sorted v = Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 sorted

let summarize passes =
  let per_window =
    List.concat_map
      (fun pass ->
        List.init pass.nwin (fun w ->
            let a = window_samples pass w in
            Array.sort Int.compare a;
            ( window_rate pass w,
              band_quantile a 0.5 /. 1e3,
              band_quantile a 0.9 /. 1e3 )))
      passes
  in
  let all =
    Array.concat (List.concat_map (fun p -> List.init p.nwin (window_samples p)) passes)
  in
  Array.sort Int.compare all;
  let p50 = rank_quantile all 0.5 and p90 = rank_quantile all 0.9
  and p99 = rank_quantile all 0.99 in
  let count f = List.fold_left (fun n p -> Array.fold_left (fun n c -> n + f c) n p.clients) 0 passes in
  {
    ops_per_s = median_float (List.map (fun (o, _, _) -> o) per_window);
    p50_us = median_float (List.map (fun (_, p, _) -> p) per_window);
    p90_us = median_float (List.map (fun (_, _, p) -> p) per_window);
    samples = Array.length all;
    beyond_p50 = beyond all p50;
    beyond_p90 = beyond all p90;
    p99_us = band_quantile all 0.99 /. 1e3;
    beyond_p99 = beyond all p99;
    window_ops = List.map (fun (o, _, _) -> o) per_window;
    e_attempted = count (fun c -> c.attempted);
    e_failed = count (fun c -> c.failed);
  }

(* Per-kind span durations and separate-block self times of a traced
   pass.  One client's spans of an operation are recorded in end order
   by a single fiber, so the children of a separate block (calls,
   queries, awaits) are exactly the non-sleep spans since the previous
   block ended. *)
let span_stats pass =
  let durs = Array.init (Array.length kind_names) (fun _ -> Vec.create 1024) in
  let selfs = Vec.create 1024 in
  Array.iter
    (fun c ->
      let sp = c.sp in
      let child = ref 0 in
      for i = 0 to sp.ops.Vec.n - 1 do
        let k = Vec.get sp.kinds i in
        let d = Vec.get sp.stops i - Vec.get sp.starts i in
        Vec.push durs.(k) d;
        if k = k_separate then begin
          Vec.push selfs (d - !child);
          child := 0
        end
        else if k <> k_sleep then child := !child + d
      done)
    pass.clients;
  let sorted v =
    let a = Array.sub v.Vec.a 0 v.Vec.n in
    Array.sort Int.compare a;
    a
  in
  (Array.map sorted durs, sorted selfs)

(* Spans stay in memory during the pass and are written out here. *)
let write_spans ~workload pass =
  let dir = ".bench_out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s.tsv" workload) in
  let oc = open_out path in
  output_string oc "client\top\tspan\tparent\tstart_ns\tend_ns\n";
  Array.iteri
    (fun ci c ->
      let sp = c.sp in
      for i = 0 to sp.ops.Vec.n - 1 do
        let k = Vec.get sp.kinds i in
        Printf.fprintf oc "%d\t%d\t%s\t%s\t%d\t%d\n" ci (Vec.get sp.ops i) kind_names.(k)
          (if k = k_separate || k = k_sleep then "-" else kind_names.(k_separate))
          (Vec.get sp.starts i - pass.start) (Vec.get sp.stops i - pass.start)
      done)
    pass.clients;
  close_out oc;
  path

(* ---- workloads ---- *)

(* A workload instance inside one runtime: [warm] faults in processors,
   private queues and the request pool (charged to set-up); [pass] is one
   timed pass; [check] lists every wrong output seen so far. *)
type instance = {
  warm : unit -> unit;
  pass : traced:bool -> seconds:float -> pass;
  check : unit -> string list;
  finish : unit -> unit;
}

(* Every workload runs [Config.all]. *)
type workload = {
  name : string;
  domains : int;
  make : seed:int -> round:int -> R.t -> instance;
}

(* Closed-loop instance: [nclients] fibers each run [op] back to back. *)
let closed ~runtimes ~nclients ~warm_ops ~expect_per_s ~op ~check ~finish =
  let warm () =
    let sp = make_spans false in
    let fin = Array.init nclients (fun _ -> Ivar.create ()) in
    Array.iteri
      (fun c iv ->
        Sched.spawn (fun () ->
            for _ = 1 to warm_ops do
              op c sp
            done;
            Ivar.fill iv ()))
      fin;
    Array.iter Ivar.read fin
  in
  let pass ~traced ~seconds =
    closed_pass runtimes ~nclients ~traced ~seconds
      ~expect:(int_of_float (seconds *. float expect_per_s))
      op
  in
  { warm; pass; check; finish }

(* rpc: two clients share one handler; one operation is a separate block
   with one call and one query.  Latency-bound: reservation, the query's
   sync round trip and scheduler handoff dominate. *)
let rpc =
  let make ~seed ~round rt =
    let h = R.processor rt in
    let counter = ref 0 in
    let vals = Array.init 2 (fun c -> values ~seed ~round ~client:c n_values) in
    let added = Array.make 2 0 and seen = Array.make 2 0 and k = Array.make 2 0 in
    let errors = ref [] in
    let op c sp =
      let v = vals.(c).(k.(c) land (n_values - 1)) in
      k.(c) <- k.(c) + 1;
      let t = enter sp in
      let r =
        R.separate rt h (fun reg ->
            let t1 = enter sp in
            Reg.call reg (fun () -> counter := !counter + v);
            leave sp k_call t1;
            let t2 = enter sp in
            let r = Reg.query reg (fun () -> !counter) in
            leave sp k_query t2;
            r)
      in
      leave sp k_separate t;
      added.(c) <- added.(c) + v;
      (* The block's call precedes its query, so each client sees the
         shared sum strictly grow. *)
      if r <= seen.(c) && !errors = [] then
        errors := [ Printf.sprintf "rpc: client %d read %d after %d" c r seen.(c) ];
      seen.(c) <- r
    in
    let check () =
      let total = R.separate rt h (fun reg -> Reg.query reg (fun () -> !counter)) in
      let expected = added.(0) + added.(1) in
      if total <> expected then
        errors := Printf.sprintf "rpc: counter %d, expected %d" total expected :: !errors;
      !errors
    in
    closed ~runtimes:[ rt ] ~nclients:2 ~warm_ops:3000 ~expect_per_s:200_000 ~op
      ~check ~finish:ignore
  in
  { name = "rpc"; domains = 2; make }

(* stream: two clients, each with its own handler; one operation logs 64
   calls and one pipelined query, then awaits it.  Encoding, enqueue,
   drain batching and allocation dominate; park/wake is amortised. *)
let stream_calls = 64

let stream =
  let make ~seed ~round rt =
    let hs = Array.init 2 (fun _ -> R.processor rt) in
    let cells = Array.init 2 (fun _ -> ref 0) in
    let vals = Array.init 2 (fun c -> values ~seed ~round ~client:c n_values) in
    let expected = Array.make 2 0 and k = Array.make 2 0 in
    let errors = ref [] in
    let op c sp =
      let cell = cells.(c) and vs = vals.(c) in
      let t = enter sp in
      let r =
        R.separate rt hs.(c) (fun reg ->
            for _ = 1 to stream_calls do
              let v = vs.(k.(c) land (n_values - 1)) in
              k.(c) <- k.(c) + 1;
              expected.(c) <- expected.(c) + v;
              let t1 = enter sp in
              Reg.call reg (fun () -> cell := !cell + v);
              leave sp k_call t1
            done;
            let t2 = enter sp in
            let p = Reg.query_async reg (fun () -> !cell) in
            leave sp k_query_async t2;
            let t3 = enter sp in
            let r = Promise.await p in
            leave sp k_await t3;
            r)
      in
      leave sp k_separate t;
      if r <> expected.(c) && !errors = [] then
        errors := [ Printf.sprintf "stream: client %d read %d, expected %d" c r expected.(c) ]
    in
    closed ~runtimes:[ rt ] ~nclients:2 ~warm_ops:400 ~expect_per_s:40_000 ~op
      ~check:(fun () -> !errors) ~finish:ignore
  in
  { name = "stream"; domains = 2; make }

(* serve: open loop.  Two generator fibers on one domain send Poisson
   arrivals at [serve_rate] in total, each request in its own separate
   block on one of two handlers, mix call/query/query_async = 1/1/2, each
   burning [service_ns].  Latency runs from the intended send time. *)
let serve_rate = 8000.0
let service_ns = 50_000

(* The generator sleeps only for the part of a gap beyond [spin_ns] and
   yields through the rest.  On a shared virtual host an idle domain's
   timer wake ran up to milliseconds late whenever neighbours were busy
   (generator lateness p90 3.7 ms against 0.16 ms on a quiet host), and
   that host noise swung serve's p90 from 0.19 to 5 ms between runs.
   At 8000/s almost every gap is shorter than [spin_ns].  Between yields
   the generator spins for up to [slice_ns]: every yield allocates, and
   yielding back to back made the generators' garbage (about 7000 words
   and 31 minor GCs per 1000 requests) the largest term in serve's p90. *)
let spin_ns = 1_000_000
let slice_ns = 5_000

let busy_work ns =
  let stop = now () + ns in
  while now () < stop do
    ()
  done

(* Arrival schedule of one generator: offsets from the pass start (ns),
   handler and kind per request — all the runtime ever sees of the seed. *)
let schedule ~seed ~round ~pass_id ~client ~dur_ns =
  let rng = Random.State.make [| seed; round; client; pass_id |] in
  let mean_gap = 1e9 /. (serve_rate /. 2.0) in
  let offs = Vec.create 1024 and hs = Vec.create 1024 and kinds = Vec.create 1024 in
  let t = ref 0 in
  let continue = ref true in
  while !continue do
    let u = Random.State.float rng 1.0 in
    t := !t + int_of_float (-.log (if u <= 0.0 then epsilon_float else u) *. mean_gap);
    if !t >= dur_ns then continue := false
    else begin
      Vec.push offs !t;
      Vec.push hs (Random.State.int rng 2);
      Vec.push kinds (Random.State.int rng 4)
    end
  done;
  (offs, hs, kinds)

let serve =
  let make ~seed ~round rt =
    let hs = Array.init 2 (fun _ -> R.processor rt) in
    let served = Array.make 2 0 in
    let ok = ref 0 in
    let errors = ref [] in
    let passes = ref 0 in
    (* kind 0: call; 1: query; 2-3: query_async, awaited. *)
    let issue sp h kind on_done =
      let t = enter sp in
      R.separate rt hs.(h) (fun reg ->
          match kind with
          | 0 ->
            let t1 = enter sp in
            Reg.call reg (fun () ->
                busy_work service_ns;
                served.(h) <- served.(h) + 1;
                on_done ());
            leave sp k_call t1
          | 1 ->
            let t1 = enter sp in
            let r =
              Reg.query reg (fun () ->
                  busy_work service_ns;
                  served.(h) <- served.(h) + 1;
                  served.(h))
            in
            leave sp k_query t1;
            if r < 1 then errors := [ "serve: query saw no request" ];
            on_done ()
          | _ ->
            let t1 = enter sp in
            let p =
              Reg.query_async reg (fun () ->
                  busy_work service_ns;
                  served.(h) <- served.(h) + 1;
                  served.(h))
            in
            leave sp k_query_async t1;
            let t2 = enter sp in
            let r = Promise.await p in
            leave sp k_await t2;
            if r < 1 then errors := [ "serve: query_async saw no request" ];
            on_done ());
      leave sp k_separate t;
      incr ok
    in
    (* A query on each handler returns once every earlier block's calls
       have run: the pass's asynchronous completions are then recorded. *)
    let drain () =
      Array.iter (fun h -> R.separate rt h (fun reg -> Reg.query reg (fun () -> ()))) hs
    in
    let warm () =
      let sp = make_spans false in
      let fin = Array.init 2 (fun _ -> Ivar.create ()) in
      Array.iteri
        (fun c iv ->
          Sched.spawn (fun () ->
              for i = 1 to 300 do
                issue sp ((i + c) land 1) (i land 3) ignore
              done;
              Ivar.fill iv ()))
        fin;
      Array.iter Ivar.read fin;
      drain ()
    in
    let pass ~traced ~seconds =
      incr passes;
      let dur_ns = int_of_float (seconds *. 1e9) in
      let nwin = max 1 (dur_ns / window_ns) in
      let win_ns = dur_ns / nwin in
      let scheds =
        Array.init 2 (fun client -> schedule ~seed ~round ~pass_id:!passes ~client ~dur_ns)
      in
      let clients =
        Array.map
          (fun (offs, _, _) ->
            let c = make_client ~traced ~expect:offs.Vec.n ~nwin in
            Array.fill c.lat.Vec.a 0 offs.Vec.n (-1);
            { c with late = Vec.create offs.Vec.n })
          scheds
      in
      let p0 = read_probe [ rt ] in
      let start = now () in
      let finished = Array.map (fun _ -> Ivar.create ()) clients in
      Array.iteri
        (fun ci c ->
          let offs, hsel, kinds = scheds.(ci) in
          Sched.spawn (fun () ->
              let k = ref 0 in
              while !k < offs.Vec.n && not (spans_full c.sp) do
                let i = !k in
                let intended = start + Vec.get offs i in
                let t = now () in
                if intended - t > spin_ns then begin
                  let ts = enter c.sp in
                  Sched.sleep (float (intended - t - spin_ns) *. 1e-9);
                  leave c.sp k_sleep ts
                end;
                while now () < intended do
                  Sched.yield ();
                  let until = min intended (now () + slice_ns) in
                  while now () < until do
                    ()
                  done
                done;
                Vec.push c.late (now () - intended);
                c.sp.op <- (2 * i) + ci;
                c.attempted <- c.attempted + 1;
                let lat = c.lat.Vec.a in
                (try
                   issue c.sp (Vec.get hsel i) (Vec.get kinds i) (fun () ->
                       lat.(i) <- now () - intended)
                 with e when is_failure e ->
                   c.failed <- c.failed + 1;
                   lat.(i) <- failed_ns);
                incr k
              done;
              c.lat.Vec.n <- !k;
              c.last_ns <- now ();
              Ivar.fill finished.(ci) ()))
        clients;
      Array.iter Ivar.read finished;
      drain ();
      let delta = probe_delta [ rt ] p0 in
      Array.iteri
        (fun ci c ->
          let offs, _, _ = scheds.(ci) in
          (* Requests belong to the window of their intended send time. *)
          let w = ref 0 in
          for i = 0 to c.lat.Vec.n - 1 do
            while !w < nwin && Vec.get offs i >= (!w + 1) * win_ns do
              incr w;
              c.marks.(!w) <- i
            done;
            let l = Vec.get c.lat i in
            if l < 0 && !errors = [] then
              errors := [ Printf.sprintf "serve: request %d of client %d never completed" i ci ];
            if l >= 0 && l <> failed_ns && !w < nwin then begin
              let done_at = start + Vec.get offs i + l in
              if c.first.(!w) = 0 || done_at < c.first.(!w) then c.first.(!w) <- done_at;
              c.last.(!w) <- max c.last.(!w) done_at
            end
          done;
          while !w < nwin do
            incr w;
            c.marks.(!w) <- c.lat.Vec.n
          done)
        clients;
      let last = Array.fold_left (fun acc c -> max acc c.last_ns) start clients in
      { clients; start; nwin; elapsed_ns = last - start; delta }
    in
    let check () =
      drain ();
      let total = served.(0) + served.(1) in
      if total <> !ok then
        errors := Printf.sprintf "serve: handlers served %d, %d completed" total !ok :: !errors;
      !errors
    in
    { warm; pass; check; finish = ignore }
  in
  { name = "serve"; domains = 1; make }

(* remote: one client against a node hosted in this process, over a
   unix-socket loopback.  One operation is a blocking query plus 16
   pipelined queries, all awaited.  Shipped closures run against the
   node's module-level state, which here is this module's [remote_cell].

   Client and node share one domain.  With the node on a second domain,
   throughput swung 3.4k-9.2k operations/s from run to run with how the
   host scheduled the two virtual CPUs; on one domain the run measures
   the codec, socket, poller and demultiplexer, not the host. *)
let remote_cell = Atomic.make 0
let remote_pipelined = 16

let remote_path = Printf.sprintf ".bench_out/qsb-%d.sock" (Unix.getpid ())
let remote_addr = Scoop.Config.Unix_sock remote_path

let remote =
  let make ~seed ~round _ =
    Atomic.set remote_cell 0;
    let node_rt =
      R.create ~config:Scoop.Config.(all |> with_name "node" |> with_listen remote_addr) ()
    in
    let served = Ivar.create () in
    Sched.spawn (fun () ->
        Scoop.Internal.Node.serve node_rt remote_addr;
        Ivar.fill served ());
    while not (Sys.file_exists remote_path) do
      Sched.yield ()
    done;
    let rt = R.create ~config:Scoop.Config.(all |> with_connect [ remote_addr ]) () in
    let h = R.processor rt in
    let vals = values ~seed ~round ~client:0 n_values in
    let k = ref 0 and expected = ref 0 in
    let errors = ref [] in
    let vs = Array.make remote_pipelined 0 in
    let proms = Array.make remote_pipelined (Promise.of_value 0) in
    let next () =
      let v = vals.(!k land (n_values - 1)) in
      incr k;
      v
    in
    (* Each query adds its value and returns the sum before it: with one
       client the node's replies are exactly predictable. *)
    let expect got v =
      if got <> !expected && !errors = [] then
        errors := [ Printf.sprintf "remote: read %d, expected %d" got !expected ];
      expected := !expected + v
    in
    let op _ sp =
      let t = enter sp in
      R.separate rt h (fun reg ->
          let v = next () in
          let t1 = enter sp in
          let r = Reg.query reg (fun () -> Atomic.fetch_and_add remote_cell v) in
          leave sp k_query t1;
          expect r v;
          for j = 0 to remote_pipelined - 1 do
            let v = next () in
            vs.(j) <- v;
            let t2 = enter sp in
            proms.(j) <- Reg.query_async reg (fun () -> Atomic.fetch_and_add remote_cell v);
            leave sp k_query_async t2
          done;
          for j = 0 to remote_pipelined - 1 do
            let t3 = enter sp in
            let r = Promise.await proms.(j) in
            leave sp k_await t3;
            expect r vs.(j)
          done);
      leave sp k_separate t
    in
    let check () =
      let total = R.separate rt h (fun reg -> Reg.query reg (fun () -> Atomic.get remote_cell)) in
      if total <> !expected then
        errors := Printf.sprintf "remote: cell %d, expected %d" total !expected :: !errors;
      !errors
    in
    let finish () =
      R.shutdown_nodes rt;
      R.shutdown rt;
      Ivar.read served;
      R.shutdown node_rt
    in
    closed ~runtimes:[ rt; node_rt ] ~nclients:1
      ~warm_ops:400 ~expect_per_s:20_000 ~op ~check ~finish
  in
  { name = "remote"; domains = 1; make }

let workloads = [ rpc; stream; serve; remote ]

(* ---- driving a workload ---- *)

type result = {
  setup_s : float list;
  untraced : pass list;
  traced : pass option;
  errors : string list;
}

(* One round per fresh runtime: set-up — scheduler and runtime start,
   processor creation, node start and connect for [remote], warm-up — is
   timed, then the round's timed pass runs.  A traced run is one round:
   an untraced pass for the counters, then the traced pass, each half of
   [seconds]. *)
let run_workload w ~seed ~seconds ~trace =
  let n = if trace then 1 else rounds in
  let setups = ref [] and passes = ref [] and traced = ref None and errors = ref [] in
  for round = 1 to n do
    let t0 = now () in
    R.run ~domains:w.domains ~config:Scoop.Config.all (fun rt ->
        let inst = w.make ~seed ~round rt in
        inst.warm ();
        setups := (float (now () - t0) *. 1e-9) :: !setups;
        let s = seconds /. float (if trace then 2 else n) in
        passes := inst.pass ~traced:false ~seconds:s :: !passes;
        if trace then traced := Some (inst.pass ~traced:true ~seconds:s);
        errors := !errors @ inst.check ();
        inst.finish ())
  done;
  { setup_s = !setups; untraced = List.rev !passes; traced = !traced; errors = !errors }

(* ---- reporting ---- *)

type metric = { m_name : string; value : float; unit_ : string; samples : int }

let m m_name value unit_ samples = { m_name; value; unit_; samples }

let e2e_metrics res =
  let e = summarize res.untraced in
  let setup = median_float res.setup_s in
  ( e,
    [ m "ops_per_s" e.ops_per_s "1/s" e.e_attempted;
      m "p50_us" e.p50_us "us" e.samples;
      m "p90_us" e.p90_us "us" e.samples;
      m "setup_s" setup "s" (List.length res.setup_s) ] )

let late_samples pass =
  let a = Array.concat (Array.to_list (Array.map (fun c -> Array.sub c.late.Vec.a 0 c.late.Vec.n) pass.clients)) in
  Array.sort Int.compare a;
  a

let layer_metrics ~workload res =
  let u = List.hd res.untraced and t = Option.get res.traced in
  let e = summarize [ u ] in
  let ops = e.e_attempted in
  let d = u.delta in
  let s = d.d_stats and c = d.d_sched in
  let durs, selfs = span_stats t in
  let us a = band_quantile a 0.5 /. 1e3 and ns a = band_quantile a 0.5 in
  let hist name = List.assoc name d.d_hist in
  let hq name q = dist_quantile (hist name) q /. 1e3 in
  let rtt = Hist.merge (hist "query_remote_ns") (hist "pipelined_remote_ns") in
  let late = late_samples u in
  let per_op x = ratio x ops in
  let traced_ops = Array.fold_left (fun n c -> n + c.attempted) 0 t.clients in
  let rate ops ns = if ns <= 0 then 0.0 else float ops /. (float ns *. 1e-9) in
  let overhead =
    let tr = rate traced_ops t.elapsed_ns in
    if tr <= 0.0 then 0.0 else rate ops u.elapsed_ns /. tr
  in
  let flat_base = s.s_calls + s.s_packaged_queries + s.s_promises_created in
  let n k = Array.length durs.(k) in
  let path = write_spans ~workload t in
  ( path,
    traced_ops,
    [ m "separate.self_us" (us selfs) "us" (Array.length selfs);
      m "registration.query_us" (us durs.(k_query)) "us" (n k_query);
      m "registration.call_ns" (ns durs.(k_call)) "ns" (n k_call);
      m "registration.query_async_ns" (ns durs.(k_query_async)) "ns"
        (n k_query_async);
      m "promise.await_us" (us durs.(k_await)) "us" (n k_await);
      m "alloc.words_per_op" (d.d_minor_words /. float (max 1 ops)) "words/op" ops;
      m "gc.minor_gcs_per_kop" (1000.0 *. per_op d.d_minor_gcs) "gcs/kop" ops;
      m "handler.batch_mean" (Stats.mean_batch s) "req/wakeup" s.s_handler_wakeups;
      m "handler.wakeups_per_op" (per_op s.s_handler_wakeups) "1/op" ops;
      m "handler.queue_wait_p50_us" (hq "queue_wait_ns" 0.5) "us" (hist "queue_wait_ns").total;
      m "handler.queue_wait_p90_us" (hq "queue_wait_ns" 0.9) "us" (hist "queue_wait_ns").total;
      m "handler.exec_p50_us" (hq "exec_ns" 0.5) "us" (hist "exec_ns").total;
      m "sync.sent_per_op" (per_op s.s_syncs_sent) "1/op" ops;
      m "sync.elided_ratio" (ratio s.s_syncs_elided (s.s_syncs_sent + s.s_syncs_elided)) "ratio"
        (s.s_syncs_sent + s.s_syncs_elided);
      m "pool.flat_ratio" (ratio s.s_requests_flat flat_base) "ratio" flat_base;
      m "pool.miss_ratio" (ratio s.s_pool_misses (s.s_requests_flat + s.s_pool_misses)) "ratio"
        (s.s_requests_flat + s.s_pool_misses);
      m "promise.ready_ratio" (Stats.overlap_ratio s) "ratio" (s.s_promises_ready + s.s_promises_blocked);
      m "sched.dispatches_per_op" (per_op c.c_executed) "1/op" ops;
      m "sched.handoffs_per_op" (per_op c.c_handoffs) "1/op" ops;
      m "sched.steals_per_op" (per_op c.c_steals) "1/op" ops;
      m "sched.parks_per_op" (per_op c.c_parks) "1/op" ops;
      m "timer.late_p50_us" (band_quantile late 0.5 /. 1e3) "us" (Array.length late);
      m "timer.late_p90_us" (band_quantile late 0.9 /. 1e3) "us" (Array.length late);
      m "remote.rtt_p50_us" (dist_quantile rtt 0.5 /. 1e3) "us" rtt.total;
      m "remote.replies_per_request" (ratio s.s_remote_replies s.s_remote_requests) "ratio"
        s.s_remote_requests;
      m "remote.words_per_request"
        (if s.s_remote_requests = 0 then 0.0 else d.d_minor_words /. float s.s_remote_requests)
        "words/req" s.s_remote_requests;
      m "remote.failures" (float s.s_remote_failures) "count" s.s_remote_requests;
      m "tail.p99_us" e.p99_us "us" e.samples;
      m "tail.p99_samples" (float e.beyond_p99) "count" e.samples;
      m "trace.overhead_ratio" overhead "ratio" traced_ops ] )

let json_of_metrics ms =
  String.concat ", "
    (List.map
       (fun x -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.m_name x.value x.unit_)
       ms)

let print_table ms =
  List.iter
    (fun x -> Printf.printf "  %-30s %16.4f %-10s n=%d\n" x.m_name x.value x.unit_ x.samples)
    ms

let usage () =
  prerr_endline
    "usage: qsbench.exe --workload rpc|stream|serve|remote [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME rpc, stream, serve or remote");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun _ -> usage ())
    "qsbench.exe";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  (try Unix.mkdir ".bench_out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let traced = !trace = 1 in
  let res = run_workload w ~seed:!seed ~seconds:!seconds ~trace:traced in
  Printf.printf "workload %s  seed %d  seconds %g  domains %d  config all  trace %d\n" w.name
    !seed !seconds w.domains !trace;
  let correct = res.errors = [] in
  List.iter (fun e -> Printf.printf "WRONG OUTPUT: %s\n" e) res.errors;
  let e, e2e = e2e_metrics res in
  Printf.printf
    "end-to-end (untraced; medians of %d windows over %d rounds):\n" (List.length e.window_ops) (List.length res.untraced);
  print_table e2e;
  Printf.printf
    "  samples %d  beyond p50 %d  beyond p90 %d  p99 %.3f us (beyond %d)  attempted %d  failed %d\n"
    e.samples e.beyond_p50 e.beyond_p90 e.p99_us e.beyond_p99 e.e_attempted e.e_failed;
  (let a = Array.of_list e.window_ops in
   Array.sort Float.compare a;
   let q x = a.(min (Array.length a - 1) (int_of_float (x *. float (Array.length a)))) in
   Printf.printf "  ops/s across windows: min %.0f  q1 %.0f  median %.0f  q3 %.0f  max %.0f\n"
     a.(0) (q 0.25) (q 0.5) (q 0.75) a.(Array.length a - 1));
  let metrics, attempted, failed =
    if traced then begin
      let path, traced_ops, layers = layer_metrics ~workload:w.name res in
      Printf.printf "per-layer (counters from the untraced pass, spans from the traced pass):\n";
      print_table layers;
      Printf.printf "  spans written to %s\n" path;
      let t = Option.get res.traced in
      let t_failed = Array.fold_left (fun n c -> n + c.failed) 0 t.clients in
      (layers, e.e_attempted + traced_ops, e.e_failed + t_failed)
    end
    else (e2e, e.e_attempted, e.e_failed)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (json_of_metrics metrics);
  exit (if correct then 0 else 1)
