(* The repo benchmark: three workloads against a default-configuration
   mmdb server, checked end to end, plus a traced in-process replay for
   per-layer figures.  See README.md in this directory.

     perfbench --workload kv_point --seed 1 --seconds 10 --trace 0
     perfbench --emit-streams kv_point --seed 1 --requests 200
     perfbench --replay-counters kv_point --seed 1 --requests 100

   The last line of a run's standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module Json = Mmdb_util.Json


(* Requests the traced run replays in-process, per workload: a fixed
   count, so its counter metrics repeat exactly for a seed. *)
let replay_requests = function
  | "kv_point" -> 400
  | "analytic" -> 240
  | _ -> 2000

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* Every measured number must come from the default path: refuse to
   measure under any engine knob.  The self-check modes run under them, as
   the test matrix sets them. *)
let refuse_knobs () =
  let knobs =
    List.filter
      (fun kv -> String.length kv > 5 && String.sub kv 0 5 = "MMDB_")
      (Array.to_list (Unix.environment ()))
  in
  if knobs <> [] then
    die "refusing to run with engine knobs set (%s); unset them"
      (String.concat " " knobs)

(* A digest of the engine's sources, naming the code measured even where
   the checkout is not a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  match List.concat_map files [ "lib"; "bin" ] with
  | [] -> "none"
  | fs ->
      String.sub
        (Digest.to_hex
           (Digest.string (String.concat "" (List.map Digest.file fs))))
        0 12
  | exception Sys_error _ -> "none"

let print_config (after : Json.t) =
  let b path = Load.field after path = Json.Bool true in
  let onoff x = if x then "on" else "off" in
  Printf.printf
    "config: mvcc=%s planner=%s batch=%s domains=%.0f stmt_cache=%d advisor_every=%d \
     revision=%s source=%s\n"
    (onoff (b [ "mvcc"; "enabled" ]))
    (if b [ "planner"; "cost_based" ] then "cost-based" else "rule-based")
    (if b [ "batch"; "enabled" ] then Printf.sprintf "%.0f" (Load.num after [ "batch"; "size" ])
     else "off")
    (Load.num after [ "server"; "domains" ])
    Mmdb_net.Server.default_config.Mmdb_net.Server.stmt_cache
    Mmdb_net.Server.default_config.Mmdb_net.Server.advisor_every
    (Option.value ~default:"unknown"
       (Json.to_string_opt (Load.field after [ "server"; "revision" ])))
    (source_digest ())

let print_failures ?(label = "failures") (t : Load.tally) =
  Printf.printf "%s: %d of %d attempted (error_rate %.6f)\n" label t.Load.failed
    t.Load.attempted
    (float_of_int t.Load.failed /. float_of_int (max 1 t.Load.attempted));
  Hashtbl.fold (fun m n acc -> (n, m) :: acc) t.Load.by_msg []
  |> List.sort compare |> List.rev
  |> List.iter (fun (n, m) -> Printf.printf "  %6d  %s\n" n m);
  List.iter (fun d -> Printf.printf "  wrong: %s\n" d) (List.rev t.Load.details)

(* name, value, unit, samples *)
type metric = string * float * string * int

let print_table (ms : metric list) =
  Printf.printf "%-42s %16s %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (n, v, u, s) -> Printf.printf "%-42s %16.4f %-6s %d\n" n v u s)
    ms

(* The cold starts' failures are printed and traced, not counted in
   [failed]; a wrong result anywhere makes the run incorrect. *)
let print_cold (cold : Load.tally) =
  print_failures ~label:"cold-start failures (not in failed)" cold

let result_line ~(cold : Load.tally) (t : Load.tally) (ms : metric list) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.Load.wrong = 0 && cold.Load.wrong = 0));
         ("attempted", Json.Int t.Load.attempted);
         ("failed", Json.Int t.Load.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v, u, _) ->
                  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
                ms) );
       ])

let ms_of s = 1000.0 *. s

(* A latency percentile, reported only when at least ten samples lie
   beyond it. *)
let percentile name lats p =
  let n = Array.length lats in
  if float_of_int n *. (1.0 -. (p /. 100.0)) < 10.0 then begin
    Printf.printf "%s not reported: %d samples leave fewer than 10 beyond it\n" name n;
    []
  end
  else [ (name, ms_of (Mmdb_util.Stats.percentile lats p), "ms", n) ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Set up at least 5 times and for at least 2 s (at most 25 times), so
   short set-ups are repeated more and their median is steady; measure
   against the last server. *)
let setup_repeated wl =
  let t0 = Unix.gettimeofday () in
  let rec go times =
    let srv, dt = Load.setup wl in
    let times = dt :: times in
    let n = List.length times in
    if n >= 25 || (n >= 5 && Unix.gettimeofday () -. t0 >= 2.0) then (srv, times)
    else begin
      Load.stop_server srv;
      go times
    end
  in
  go []

let end_to_end (wl : Gen.t) ~seconds =
  let srv, setup_times = setup_repeated wl in
  let r, rss =
    Fun.protect
      ~finally:(fun () -> Load.stop_server srv)
      (fun () ->
        let r = Load.run ~port:srv.Load.port ~wl ~seconds in
        (r, Load.peak_rss_mb srv))
  in
  let reads = Load.latencies r Gen.Read and writes = Load.latencies r Gen.Write in
  (* the last completion closes the window: the loop stops sending at
     [seconds] and waits for the replies in flight *)
  let n = Array.length r.Load.samples in
  let elapsed = if n = 0 then seconds else r.Load.samples.(n - 1).Load.at in
  let metrics =
    [ ("throughput_rps", float_of_int n /. elapsed, "1/s", n) ]
    @ percentile "read_p50_ms" reads 50.0
    @ percentile "read_p90_ms" reads 90.0
    @ percentile "write_p50_ms" writes 50.0
    @ [
        ("setup_s", median setup_times, "s", List.length setup_times);
        ("server_rss_mb", rss, "MB", 1);
      ]
  in
  (* deeper tails, printed where the run has the samples for them but not
     gated: the slowest workload cannot fill them at every revision *)
  let tails =
    percentile "read_p99_ms" reads 99.0
    @ percentile "write_p90_ms" writes 90.0
    @ percentile "write_p99_ms" writes 99.0
  in
  print_config r.Load.after;
  print_table (metrics @ tails);
  print_failures r.Load.tally;
  print_cold r.Load.cold;
  (r.Load.cold, r.Load.tally, metrics)

let traced (wl : Gen.t) ~seed ~seconds =
  let srv, _ = Load.setup wl in
  let r =
    Fun.protect
      ~finally:(fun () -> Load.stop_server srv)
      (fun () -> Load.run ~port:srv.Load.port ~wl ~seconds)
  in
  let d path = Load.num r.Load.after path -. Load.num r.Load.before path in
  let hits = d [ "requests"; "stmt_cache_hits" ]
  and misses = d [ "requests"; "stmt_cache_misses" ] in
  let fresh = Gen.make wl.Gen.name ~seed in
  let acc = Replay.replay fresh ~n:(replay_requests wl.Gen.name) in
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let spans_file =
    Printf.sprintf "perfbench/out/spans-%s-%d.jsonl" wl.Gen.name seed
  in
  Replay.write_spans spans_file;
  let client_read_p50_us =
    match Load.latencies r Gen.Read with
    | [||] -> 0.0
    | reads -> 1e6 *. Mmdb_util.Stats.percentile reads 50.0
  in
  let t = Load.tally () in
  Load.merge_tally t r.Load.tally;
  Load.merge_tally t acc.Replay.t;
  let server =
    [
      ( "server.stmt_cache_hit_ratio",
        (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)),
        "ratio" );
      ("server.read_jobs", d [ "requests"; "read_jobs" ], "count");
      ("server.errors", d [ "requests"; "errors" ], "count");
      ("server.shed", d [ "requests"; "shed" ], "count");
      ("server.request_p50_ms", Load.num r.Load.after [ "latency"; "p50_ms" ], "ms");
      ("server.mvcc_versions_created", d [ "mvcc"; "versions_created" ], "count");
      ("server.mvcc_versions_reclaimed", d [ "mvcc"; "versions_reclaimed" ], "count");
      ("server.mvcc_max_chain", Load.num r.Load.after [ "mvcc"; "max_chain" ], "count");
      ("server.mvcc_tuples_swept", d [ "mvcc"; "tuples_swept" ], "count");
      ( "transport_gap_us",
        client_read_p50_us -. Replay.stmt_p50_us acc,
        "us" );
      ( "error_rate",
        float_of_int t.Load.failed /. float_of_int (max 1 t.Load.attempted),
        "ratio" );
      ("server.cold_start_failures", float_of_int r.Load.cold.Load.failed, "count");
    ]
  in
  let metrics =
    List.map
      (fun (n, v, u) -> (n, v, u, acc.Replay.reads + acc.Replay.writes))
      (Replay.time_metrics () @ Replay.counter_metrics acc)
    @ List.map (fun (n, v, u) -> (n, v, u, r.Load.tally.Load.attempted)) server
  in
  print_config r.Load.after;
  Printf.printf "replayed %d requests (%d reads, %d writes); spans in %s\n"
    (acc.Replay.reads + acc.Replay.writes)
    acc.Replay.reads acc.Replay.writes spans_file;
  print_table metrics;
  print_failures t;
  print_cold r.Load.cold;
  (r.Load.cold, t, metrics)

let emit_streams (wl : Gen.t) ~requests =
  Array.iteri
    (fun c (conn : Gen.conn) ->
      for _ = 1 to requests do
        let r = conn.Gen.next () in
        r.Gen.apply ();
        Printf.printf "%d %s %s\n" c
          (match r.Gen.op with Gen.Read -> "R" | Gen.Write -> "W")
          (Load.body_text r.Gen.body)
      done)
    wl.Gen.conns

let replay_counters (wl : Gen.t) ~requests =
  let acc = Replay.replay wl ~n:requests in
  List.iter
    (fun (n, v, _) -> Printf.printf "%s %.6f\n" n v)
    (Replay.counter_metrics acc);
  if acc.Replay.t.Load.failed > 0 then begin
    print_failures acc.Replay.t;
    exit 1
  end

let () =
  let mode = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and requests = ref 100 in
  let set m w =
    mode := m;
    workload := w
  in
  Arg.parse
    [
      ("--workload", Arg.String (set "run"), "NAME run a workload against a server");
      ("--emit-streams", Arg.String (set "emit"), "NAME print the request streams");
      ( "--replay-counters",
        Arg.String (set "counters"),
        "NAME replay in-process and print the counter metrics" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--requests", Arg.Set_int requests, "N requests per stream (emit/replay)");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench (--workload|--emit-streams|--replay-counters) NAME [options]";
  if not (List.mem !workload Gen.names) then
    die "unknown workload %S (one of %s)" !workload (String.concat ", " Gen.names);
  let wl = Gen.make !workload ~seed:!seed in
  match !mode with
  | "emit" -> emit_streams wl ~requests:!requests
  | "counters" -> replay_counters wl ~requests:!requests
  | _ ->
      refuse_knobs ();
      Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" !workload !seed
        !seconds !trace;
      let cold, t, metrics =
        if !trace = 1 then traced wl ~seed:!seed ~seconds:!seconds
        else end_to_end wl ~seconds:!seconds
      in
      print_endline (result_line ~cold t metrics);
      if t.Load.wrong > 0 || cold.Load.wrong > 0 then exit 1
