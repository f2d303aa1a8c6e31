(* Self-tests of the benchmark's helpers: the percentile rule, the
   counting store wrapper, the exposition parser and the self time per
   layer. *)

let percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  let value p n =
    Option.map
      (fun (r : Benchlib.percentile) -> r.value)
      (Benchlib.percentile p (xs n))
  in
  let check name expected p n =
    Alcotest.(check (option (float 0.0))) name expected (value p n)
  in
  check "p50 needs 10 beyond" None 0.5 19;
  check "p50 of 20 is the 10th" (Some 10.0) 0.5 20;
  check "p99 of 999 withheld" None 0.99 999;
  check "p99 of 1000 is the 990th" (Some 990.0) 0.99 1000;
  match Benchlib.percentile 0.99 (xs 2000) with
  | Some r ->
    Alcotest.(check int) "sample count" 2000 r.samples;
    Alcotest.(check int) "beyond" 20 r.beyond
  | None -> Alcotest.fail "p99 of 2000 withheld"

let median () =
  let check name expected xs =
    Alcotest.(check (float 0.0)) name expected (Benchlib.median xs)
  in
  check "odd" 2.0 [| 3.0; 1.0; 2.0 |];
  check "even" 2.5 [| 4.0; 1.0; 2.0; 3.0 |]

(* The wrapper's intake counts must equal the daemon's own accounting. *)
let store_counts_match_daemon () =
  let intake = Benchlib.counts () and journal = Benchlib.counts () in
  let memory () = fst (Journal.Store.memory ()) in
  let stores _ =
    {
      Serve.Shard.journal = Benchlib.wrap journal (memory ());
      intake = Benchlib.wrap ~traced:true intake (memory ());
    }
  in
  let d = Serve.Daemon.create ~stores () in
  let gen = Serve.Loadgen.make ~seed:3 () in
  for _ = 1 to 60 do
    ignore (Serve.Daemon.submit d (Serve.Loadgen.next gen));
    ignore (Serve.Daemon.tick d)
  done;
  ignore (Serve.Daemon.drain d);
  let s = Serve.Daemon.intake_stats d in
  Serve.Daemon.shutdown d;
  Alcotest.(check int) "appends" s.appends intake.appends;
  Alcotest.(check int) "fsyncs" s.fsyncs intake.syncs;
  Alcotest.(check bool) "journal written" true (journal.appends > 0);
  Alcotest.(check bool) "drain snapshots" true (journal.snapshots >= 4)

let parse_registry () =
  let registry = Telemetry.Metrics.create_registry () in
  Telemetry.Metrics.enable ~registry ();
  let c l =
    Telemetry.Metrics.counter ~registry ~labels:[ ("shard", l) ] "x_total"
  in
  Telemetry.Metrics.add (c "0") 3;
  Telemetry.Metrics.add (c "a b,c") 4;
  Telemetry.Metrics.set (Telemetry.Metrics.gauge ~registry "y") 2.5;
  let h = Telemetry.Metrics.histogram ~registry "z_seconds" in
  Telemetry.Metrics.observe h 0.25;
  Telemetry.Metrics.observe h 0.5;
  let samples = Benchlib.parse (Telemetry.Metrics.render ~registry ()) in
  let total name = Benchlib.total samples name in
  Alcotest.(check (float 0.0)) "counter over labels" 7.0 (total "x_total");
  Alcotest.(check (float 0.0)) "gauge" 2.5 (total "y");
  Alcotest.(check (float 1e-12)) "histogram sum" 0.75 (total "z_seconds_sum");
  Alcotest.(check (float 0.0)) "histogram count" 2.0 (total "z_seconds_count");
  Alcotest.(check bool)
    "label kept" true
    (List.exists
       (fun (s : Benchlib.sample) -> s.labels = [ ("shard", "a b,c") ])
       samples)

let parse_text () =
  let text =
    "# HELP q quoted\n\
     # TYPE q counter\n\
     q{k=\"a\\\"b\",le=\"+Inf\"} 5\n\
     \n\
     r 1e-3 1700000000\n\
     s{} NaN\n"
  in
  match Benchlib.parse text with
  | [ q; r; s ] ->
    Alcotest.(check (list (pair string string)))
      "escaped label"
      [ ("k", "a\"b"); ("le", "+Inf") ]
      q.labels;
    Alcotest.(check (float 0.0)) "q" 5.0 q.value;
    Alcotest.(check (float 0.0)) "timestamp ignored" 0.001 r.value;
    Alcotest.(check bool) "nan" true (Float.is_nan s.value)
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l)

(* Self time charges each instant to the innermost span covering it. *)
let self_time () =
  let clock = ref 0.0 in
  let at t f =
    clock := t;
    f ()
  in
  Telemetry.Clock.set (fun () -> !clock);
  Telemetry.Trace.reset ();
  Telemetry.Trace.enable ();
  at 0.0 (fun () ->
      Telemetry.Trace.with_span "serve.tick" (fun () ->
          at 2.0 (fun () ->
              Telemetry.Trace.with_span "journal.sync" (fun () ->
                  clock := 5.0));
          at 6.0 (fun () ->
              Telemetry.Trace.with_span "runtime.event" (fun () ->
                  at 7.0 (fun () ->
                      Telemetry.Trace.with_span "solve.layout" (fun () ->
                          clock := 8.0));
                  clock := 9.0));
          clock := 10.0));
  at 10.0 (fun () ->
      Telemetry.Trace.with_span "other" (fun () -> clock := 11.0));
  Telemetry.Trace.disable ();
  let self = Benchlib.self_times (Telemetry.Trace.spans ()) in
  Telemetry.Trace.reset ();
  Telemetry.Clock.reset ();
  let check layer expected =
    Alcotest.(check (float 1e-12))
      layer expected
      (Benchlib.layer_self self layer)
  in
  check "serve" 4.0;
  check "journal" 3.0;
  check "runtime" 2.0;
  check "placement" 1.0;
  check "acl" 0.0;
  Alcotest.(check (option string))
    "unknown layer" None
    (Benchlib.layer_of "other");
  Alcotest.(check (option string))
    "redundancy stage" (Some "acl")
    (Benchlib.layer_of "solve.redundancy");
  Alcotest.(check (float 1e-12))
    "every span's self time" 11.0
    (List.fold_left (fun acc (_, s) -> acc +. s) 0.0 self)

let () =
  let test name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          test "percentile rule" percentile_rule;
          test "median" median;
          test "store wrapper counts match the daemon"
            store_counts_match_daemon;
          test "parse the registry's exposition" parse_registry;
          test "parse escapes and special values" parse_text;
          test "self time per layer" self_time;
        ] );
    ]
