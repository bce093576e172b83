(* The traced run: replay a workload's request stream in-process on one
   domain, timing each call into a layer's public functions as a span
   and diffing the §3.1 operation counters around it.

   The request path mirrors the server's: protocol encode/decode, parse,
   then either a read under an MVCC snapshot (plan, execute, aggregate)
   or writes through the interpreter, with an epoch GC pass every 64
   write requests. *)

open Mmdb_storage
open Mmdb_core
open Mmdb_lang
open Mmdb_net
module Counters = Mmdb_util.Counters

(* --- spans ----------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  req : int;  (** request id; every span of one request shares it *)
  parent : int;  (** -1 for the request's root span *)
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;  (** time covered by child spans *)
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let cur_req = ref 0

let span name f =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  incr next_id;
  let s =
    {
      id = !next_id - 1;
      name;
      req = !cur_req;
      parent;
      t0 = Unix.gettimeofday ();
      t1 = 0.0;
      child_s = 0.0;
    }
  in
  spans := s :: !spans;
  stack := s :: !stack;
  Fun.protect f ~finally:(fun () ->
      s.t1 <- Unix.gettimeofday ();
      stack := List.tl !stack;
      match !stack with
      | p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
      | [] -> ())

let self_s s = s.t1 -. s.t0 -. s.child_s

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"req\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"self_us\":%.1f}\n"
        s.id s.req s.parent s.name s.t0 s.t1 (1e6 *. self_s s))
    (List.rev !spans);
  close_out oc

(* --- SELECT statement → Query ---------------------------------------------- *)

(* The subset of the language the generators emit, translated the way the
   interpreter does, so plan and execution can be timed apart. *)
let query_of (s : Ast.select_stmt) =
  let from = s.Ast.sel_from in
  let bare c =
    match String.index_opt c '.' with
    | Some i -> String.sub c (i + 1) (String.length c - i - 1)
    | None -> c
  in
  let label c = if String.contains c '.' then c else from ^ "." ^ c in
  let lit = function
    | Ast.L_int n -> Value.Int n
    | _ -> invalid_arg "query_of: only int literals"
  in
  let q =
    List.fold_left
      (fun q -> function
        | Ast.C_eq (c, v) -> Query.where_eq (bare c) (lit v) q
        | Ast.C_gt (c, v) -> Query.where_gt (bare c) (lit v) q
        | Ast.C_between (c, lo, hi) ->
            Query.where_between (bare c) ~lo:(lit lo) ~hi:(lit hi) q)
      (Query.from from) s.Ast.sel_where
  in
  let q =
    match s.Ast.sel_join with
    | None -> q
    | Some (inner, oc, ic, _) -> Query.join inner ~on:(bare oc, bare ic) q
  in
  let q, agg =
    match s.Ast.sel_columns with
    | `All -> (q, None)
    | `Items items ->
        let cols =
          List.filter_map (function Ast.Sel_col c -> Some (label c) | _ -> None) items
        in
        let aggs =
          List.filter_map
            (function
              | Ast.Sel_agg ("count", _) -> Some Aggregate.Count
              | Ast.Sel_agg ("avg", Some c) -> Some (Aggregate.Avg (label c))
              | Ast.Sel_agg _ -> invalid_arg "query_of: aggregate"
              | Ast.Sel_col _ -> None)
            items
        in
        if aggs = [] then (Query.project cols q, None) else (q, Some (cols, aggs))
  in
  ((if s.Ast.sel_distinct then Query.distinct q else q), agg)

(* --- the replay ------------------------------------------------------------- *)

type acc = {
  mutable reads : int;
  mutable writes : int;
  mutable rows_returned : int;
  mutable exec_c : Counters.snapshot;  (** inside Executor.execute *)
  mutable read_c : Counters.snapshot;  (** whole read path *)
  mutable write_c : Counters.snapshot;  (** whole write path *)
  mutable versions : int;
  mutable stmt_s : float list;  (** parse to result, per read *)
  t : Load.tally;
}

let counted f =
  let c0 = Counters.local_snapshot () in
  let r = f () in
  (r, Counters.diff (Counters.local_snapshot ()) c0)

let frame_body frame = String.sub frame 4 (String.length frame - 4)

let codec_request (r : Gen.req) =
  span "protocol.codec" (fun () ->
      let req =
        match r.Gen.body with
        | Gen.Text s -> Protocol.Query s
        | Gen.Exec { slot; params } ->
            Protocol.Exec_prepared
              { id = slot; params }
      in
      ignore (Protocol.decode_request (frame_body (Protocol.encode_request req))))

let codec_response (out : Interp.outcome) =
  span "protocol.codec" (fun () ->
      let resp =
        match out with
        | Interp.Rows tl ->
            Protocol.Results
              {
                columns = Descriptor.labels (Temp_list.descriptor tl);
                rows = Temp_list.materialize tl;
              }
        | Interp.Table r ->
            Protocol.Results { columns = r.Aggregate.header; rows = r.Aggregate.rows }
        | Interp.Message m | Interp.Plan_text m -> Protocol.Message m
      in
      match Protocol.decode_response (frame_body (Protocol.encode_response resp)) with
      | Ok r -> r
      | Error m -> Protocol.Error (Protocol.Proto, m))

let read_path acc db pool stmt =
  match stmt with
  | Ast.Select s ->
      let w0 = Version_store.versions_walked () in
      let out, c =
        counted (fun () ->
            span "mvcc.snapshot" (fun () ->
                Mmdb_txn.Mvcc.with_snapshot (fun _ ->
                    let q, agg = query_of s in
                    let plan = span "optimizer.plan" (fun () -> Optimizer.plan db q) in
                    let tl, ec =
                      counted (fun () ->
                          span "executor.execute" (fun () -> Executor.execute ~pool plan))
                    in
                    acc.exec_c <- Counters.add acc.exec_c ec;
                    acc.rows_returned <- acc.rows_returned + Temp_list.length tl;
                    let out =
                      match agg with
                      | None -> Interp.Rows tl
                      | Some (by, aggs) ->
                          Interp.Table
                            (span "aggregate.group" (fun () ->
                                 Aggregate.group tl ~by ~aggs))
                    in
                    (* the server renders the reply under the snapshot too *)
                    codec_response out)))
      in
      acc.versions <- acc.versions + (Version_store.versions_walked () - w0);
      acc.read_c <- Counters.add acc.read_c c;
      out
  | _ -> invalid_arg "read_path: not a SELECT"

let write_path acc sess stmts =
  let out, c =
    counted (fun () ->
        List.fold_left
          (fun prev stmt ->
            match prev with
            | Error _ -> prev
            | Ok _ ->
                let name =
                  if stmt = Ast.Commit_txn then "txn.commit" else "interp.write"
                in
                span name (fun () -> Interp.exec sess stmt))
          (Ok (Interp.Message "")) stmts)
  in
  acc.write_c <- Counters.add acc.write_c c;
  out

(* Replay [n] requests, alternating the connections' streams, and return
   the accumulated counts; spans land in [spans]. *)
let replay (wl : Gen.t) ~n =
  let db = Db.create () in
  let setup = Interp.session db in
  List.iter
    (fun frame ->
      match Interp.exec_string setup frame with
      | Ok _ -> ()
      | Error m -> failwith ("replay setup failed: " ^ m))
    wl.Gen.setup;
  let mgr = Interp.manager setup in
  let sessions = Array.init (Array.length wl.Gen.conns) (fun _ -> Interp.session ~mgr db) in
  let prepared =
    Array.of_list
      (List.map
         (fun sql ->
           match Parser.parse sql with
           | Ok [ stmt ] -> stmt
           | _ -> failwith ("replay: cannot prepare " ^ sql))
         wl.Gen.prepared)
  in
  let pool = Mmdb_util.Domain_pool.create ~size:1 () in
  let acc =
    {
      reads = 0;
      writes = 0;
      rows_returned = 0;
      exec_c = Counters.zero;
      read_c = Counters.zero;
      write_c = Counters.zero;
      versions = 0;
      stmt_s = [];
      t = Load.tally ();
    }
  in
  let gc_tick = ref 0 in
  for i = 0 to n - 1 do
    cur_req := i;
    let c = i mod Array.length wl.Gen.conns in
    let r = wl.Gen.conns.(c).Gen.next () in
    let sess = sessions.(c) in
    let out =
      span "request" (fun () ->
          codec_request r;
          let t0 = Unix.gettimeofday () in
          let stmts =
            match r.Gen.body with
            | Gen.Text sql -> (
                match span "parser.parse" (fun () -> Parser.parse sql) with
                | Ok stmts -> stmts
                | Error m -> failwith ("replay: parse failed: " ^ m))
            | Gen.Exec { slot; params } -> (
                match
                  Ast.substitute_params prepared.(slot)
                    (List.map
                       (function
                         | Value.Int n -> Ast.L_int n
                         | Value.Str s -> Ast.L_string s
                         | _ -> invalid_arg "replay: parameter type")
                       params)
                with
                | Ok stmt -> [ stmt ]
                | Error m -> failwith ("replay: bind failed: " ^ m))
          in
          match stmts with
          | [ stmt ] when Ast.is_read_only stmt && not (Interp.in_txn sess) ->
              acc.reads <- acc.reads + 1;
              let resp = read_path acc db pool stmt in
              acc.stmt_s <- (Unix.gettimeofday () -. t0) :: acc.stmt_s;
              Ok resp
          | stmts ->
              acc.writes <- acc.writes + 1;
              let out = write_path acc sess stmts in
              incr gc_tick;
              if !gc_tick mod 64 = 0 then
                span "mvcc.gc" (fun () -> ignore (Mmdb_txn.Mvcc.gc (Db.relations db)));
              Result.map codec_response out)
    in
    acc.t.Load.attempted <- acc.t.Load.attempted + 1;
    match out with
    | Error m -> Load.fail acc.t ("exec error: " ^ m)
    | Ok resp -> (
        match Load.check_reply r.Gen.check resp with
        | None -> r.Gen.apply ()
        | Some why ->
            Load.fail acc.t "wrong result";
            acc.t.Load.wrong <- acc.t.Load.wrong + 1;
            acc.t.Load.details <- (Load.body_text r.Gen.body ^ ": " ^ why) :: acc.t.Load.details)
  done;
  Mmdb_util.Domain_pool.stop pool;
  acc

(* --- per-layer figures ----------------------------------------------------- *)

(* Mean self time (µs) of the spans named [name], per request that has
   at least one. *)
let layer_us name =
  let per_req = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if String.equal s.name name then
        Hashtbl.replace per_req s.req
          (self_s s +. Option.value ~default:0.0 (Hashtbl.find_opt per_req s.req)))
    !spans;
  let n = Hashtbl.length per_req in
  if n = 0 then 0.0 else 1e6 *. Hashtbl.fold (fun _ v a -> a +. v) per_req 0.0 /. float_of_int n

let request_us () =
  let roots = List.filter (fun s -> s.parent = -1) !spans in
  match roots with
  | [] -> 0.0
  | _ ->
      1e6
      *. List.fold_left (fun a s -> a +. (s.t1 -. s.t0)) 0.0 roots
      /. float_of_int (List.length roots)

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* Counter metrics: exact, and identical across runs of one seed. *)
let counter_metrics acc =
  let e = acc.exec_c and r = acc.read_c and w = acc.write_c in
  [
    ("version_store.versions_walked_per_read", per acc.reads acc.versions, "count");
    ("executor.ptr_derefs_per_read", per acc.reads e.Counters.ptr_derefs, "count");
    ("executor.comparisons_per_read", per acc.reads e.Counters.comparisons, "count");
    ( "executor.ptr_derefs_per_row_returned",
      per acc.rows_returned e.Counters.ptr_derefs,
      "count" );
    ("executor.hash_calls_per_query", per acc.reads r.Counters.hash_calls, "count");
    ("executor.data_moves_per_query", per acc.reads r.Counters.data_moves, "count");
    ("interp.data_moves_per_write", per acc.writes w.Counters.data_moves, "count");
    ("interp.node_allocs_per_write", per acc.writes w.Counters.node_allocs, "count");
  ]

let time_metrics () =
  List.map
    (fun (metric, span) -> (metric, layer_us span, "us"))
    [
      ("protocol.codec_us", "protocol.codec");
      ("parser.parse_us", "parser.parse");
      ("mvcc.snapshot_us", "mvcc.snapshot");
      ("mvcc.gc_us", "mvcc.gc");
      ("optimizer.plan_us", "optimizer.plan");
      ("executor.execute_us", "executor.execute");
      ("aggregate.group_us", "aggregate.group");
      ("interp.write_us", "interp.write");
      ("txn.commit_us", "txn.commit");
    ]
  @ [ ("replay.request_us", request_us (), "us") ]

(* Median parse-to-result time of the replayed reads, in µs: the
   statement without protocol or transport. *)
let stmt_p50_us acc =
  match acc.stmt_s with
  | [] -> 0.0
  | l -> 1e6 *. Mmdb_util.Stats.percentile (Array.of_list l) 50.0
