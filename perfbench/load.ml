(* The server side of the benchmark: start a default-configuration
   server, load a workload over the wire, and drive it closed-loop from
   two connections, checking every reply. *)

open Mmdb_storage
open Mmdb_net
module Json = Mmdb_util.Json

(* --- the server process ------------------------------------------------ *)

type server = { pid : int; port : int }

let server_exe = Filename.concat "_build" (Filename.concat "default" "bin/mmdb_server.exe")

(* Servers not yet stopped, killed on the way out whatever the exit. *)
let live : int list ref = ref []

let stop_server s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live

let () =
  at_exit (fun () -> List.iter (fun pid -> stop_server { pid; port = 0 }) !live);
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* Start the server binary exactly as users get it: its defaults
   ([Server.default_config]) with only an ephemeral port.  It announces
   the port it bound on stderr. *)
let start_server () =
  if not (Sys.file_exists server_exe) then failwith (server_exe ^ " is not built");
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process server_exe [| server_exe; "--port"; "0" |] Unix.stdin null wr
  in
  live := pid :: !live;
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match Scanf.sscanf_opt line "mmdb_server listening on %_[^:]:%d" Fun.id with
  | Some port -> { pid; port }
  | None -> failwith ("server did not start: " ^ line)

(* Peak resident set of the server process (VmHWM), in MB. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let connect port =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error m -> failwith ("connect: " ^ m)

(* Start a server, create the schema, bulk-load over the wire, build the
   indices: returns the ready server and the seconds that took. *)
let setup (wl : Gen.t) =
  let t0 = Unix.gettimeofday () in
  let srv = start_server () in
  let c = connect srv.port in
  List.iter
    (fun frame ->
      match Client.query c frame with
      | Ok (Protocol.Error (_, m)) -> failwith ("setup failed: " ^ m)
      | Error m -> failwith ("setup failed: " ^ m)
      | Ok _ -> ())
    wl.Gen.setup;
  (match Client.ping c with Ok () -> () | Error m -> failwith ("ping: " ^ m));
  let dt = Unix.gettimeofday () -. t0 in
  ignore (Client.quit c);
  (srv, dt)

let stats c =
  match Client.stats c with
  | Ok s -> (
      match Json.parse s with Ok j -> j | Error m -> failwith ("stats: " ^ m))
  | Error m -> failwith ("stats: " ^ m)

(* [path] into a STATS document, e.g. ["requests"; "errors"]. *)
let rec field j = function
  | [] -> j
  | k :: rest -> (
      match Json.member k j with Some v -> field v rest | None -> Json.Null)

let num j path =
  let v = field j path in
  match Json.to_float_opt v with
  | Some f -> f
  | None -> ( match Json.to_int_opt v with Some n -> float_of_int n | None -> 0.0)

(* --- checking replies --------------------------------------------------- *)

let check_reply (chk : Gen.check) (resp : Protocol.response) =
  let one_int = function
    | Protocol.Results { rows = [ [| Value.Int v |] ]; _ } -> Some v
    | _ -> None
  in
  match (chk, resp) with
  | Gen.Kv_row k, r -> (
      match one_int r with
      | Some v when v mod Gen.kv_mod = k -> None
      | _ -> Some (Printf.sprintf "expected one row encoding key %d" k))
  | Gen.Value_is v, r -> (
      match one_int r with
      | Some v' when v' = v -> None
      | _ -> Some (Printf.sprintf "expected one row with value %d" v))
  | Gen.Rows { count; sum }, Protocol.Results { rows; _ } ->
      let n = List.length rows in
      if n = count && Gen.checksum rows = sum then None
      else Some (Printf.sprintf "expected %d rows (checksum %d), got %d" count sum n)
  | Gen.Rows { count; _ }, _ -> Some (Printf.sprintf "expected %d rows" count)
  | Gen.Ack m, Protocol.Message m' when String.equal m m' -> None
  | Gen.Ack m, _ -> Some (Printf.sprintf "expected message %S" m)

(* Failures grouped by message; wrong results also keep a few details. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  by_msg : (string, int) Hashtbl.t;
  mutable details : string list;
}

let tally () =
  { attempted = 0; failed = 0; wrong = 0; by_msg = Hashtbl.create 8; details = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  Hashtbl.replace t.by_msg msg
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_msg msg))

let merge_tally a b =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  a.wrong <- a.wrong + b.wrong;
  Hashtbl.iter
    (fun m n ->
      Hashtbl.replace a.by_msg m
        (n + Option.value ~default:0 (Hashtbl.find_opt a.by_msg m)))
    b.by_msg;
  a.details <- a.details @ b.details

let body_text = function
  | Gen.Text s -> s
  | Gen.Exec { slot; params } ->
      Printf.sprintf "EXEC #%d (%s)" slot
        (String.concat ", " (List.map Value.to_string params))

(* Send one request and check its reply; true when it succeeded. *)
let send t c ids (r : Gen.req) =
  t.attempted <- t.attempted + 1;
  let resp =
    match r.Gen.body with
    | Gen.Text s -> Client.query c s
    | Gen.Exec { slot; params } ->
        Client.exec_prepared c ids.(slot) params
  in
  match resp with
  | Error m ->
      fail t ("transport: " ^ m);
      false
  | Ok (Protocol.Error (code, m)) ->
      fail t (Printf.sprintf "%s error: %s" (Protocol.err_code_name code) m);
      false
  | Ok resp -> (
      match check_reply r.Gen.check resp with
      | None ->
          r.Gen.apply ();
          true
      | Some why ->
          fail t "wrong result";
          t.wrong <- t.wrong + 1;
          if List.length t.details < 5 then
            t.details <- (body_text r.Gen.body ^ ": " ^ why) :: t.details;
          false)

let prepare t c texts =
  Array.of_list
    (List.map
       (fun sql ->
         t.attempted <- t.attempted + 1;
         match Client.prepare c sql with
         | Ok (id, _) -> id
         | Error m ->
             fail t ("prepare: " ^ m);
             -1)
       texts)

(* --- the closed loop ---------------------------------------------------- *)

(* The connections pass two gates: all start their first requests
   together, then all finish warm-up before connection 0 reads STATS and
   starts the measured window for everyone at the same instant. *)
type gate = {
  m : Mutex.t;
  cv : Condition.t;
  mutable ready : int;
  mutable arrived : int;
  mutable start : float option;
}

let with_lock g f =
  Mutex.lock g.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.m) f

(* Wait until every connection has reached the first gate. *)
let all_ready gate n =
  with_lock gate (fun () ->
      gate.ready <- gate.ready + 1;
      Condition.broadcast gate.cv;
      while gate.ready < n do
        Condition.wait gate.cv gate.m
      done)

(* Longest cold start a connection sends while looking for its first read. *)
let max_cold = 64

(* One successful measured request: when it ended (seconds into the
   window), how long it took, and what it was. *)
type sample = { at : float; lat : float; op : Gen.op }

type conn_result = {
  client : Client.t;
  cold : tally;
  t : tally;
  samples : sample list;
}

(* A connection's cold start is its own stream up to and including its
   first read, sent on a fresh server at the same instant as the other
   connections' cold starts.  That is where the server's start-up races
   show (README.md, "Known defect"), so it is tallied apart from the
   workload.  Closed loop: once every connection has its first read
   answered, every request sent so far has completed. *)
let drive ~port ~(wl : Gen.t) ~seconds ~gate ~on_start c_idx =
  let t = tally () and cold = tally () in
  let c = connect port in
  let ids = prepare t c wl.Gen.prepared in
  let conn = wl.Gen.conns.(c_idx) in
  all_ready gate (Array.length wl.Gen.conns);
  let rec cold_start i =
    let r = conn.Gen.next () in
    ignore (send cold c ids r);
    if r.Gen.op <> Gen.Read && i < max_cold then cold_start (i + 1)
  in
  cold_start 1;
  for _ = 1 to wl.Gen.warmup do
    ignore (send t c ids (conn.Gen.next ()))
  done;
  let start =
    with_lock gate (fun () ->
        gate.arrived <- gate.arrived + 1;
        Condition.broadcast gate.cv;
        if c_idx = 0 then begin
          while gate.arrived < Array.length wl.Gen.conns do
            Condition.wait gate.cv gate.m
          done;
          on_start c;
          let s = Unix.gettimeofday () in
          gate.start <- Some s;
          Condition.broadcast gate.cv;
          s
        end
        else begin
          while gate.start = None do
            Condition.wait gate.cv gate.m
          done;
          Option.get gate.start
        end)
  in
  let deadline = start +. seconds in
  let samples = ref [] in
  let now = ref (Unix.gettimeofday ()) in
  while !now < deadline do
    let r = conn.Gen.next () in
    let t0 = !now in
    let good = send t c ids r in
    now := Unix.gettimeofday ();
    if good then
      samples := { at = !now -. start; lat = !now -. t0; op = r.Gen.op } :: !samples
  done;
  { client = c; cold; t; samples = !samples }

type run = {
  cold : tally;  (** the connections' cold starts *)
  tally : tally;  (** the rest: warm-up, window and final check *)
  samples : sample array;  (** in completion order *)
  before : Json.t;  (** STATS at the start of the measured window *)
  after : Json.t;  (** and at its end *)
}

(* Drive [wl] against the server on [port] for [seconds] from two
   connections, each on its own domain; then run the workload's final
   check on connection 0. *)
let run ~port ~(wl : Gen.t) ~seconds =
  let gate =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      ready = 0;
      arrived = 0;
      start = None;
    }
  in
  let before = ref Json.Null in
  let on_start c = before := stats c in
  let domains =
    List.init (Array.length wl.Gen.conns) (fun i ->
        Domain.spawn (fun () -> drive ~port ~wl ~seconds ~gate ~on_start i))
  in
  let results = List.map Domain.join domains in
  let c0 = (List.hd results).client in
  let after = stats c0 in
  let t = tally () and cold = tally () in
  List.iter
    (fun r ->
      merge_tally t r.t;
      merge_tally cold r.cold)
    results;
  (match wl.Gen.final with
  | None -> ()
  | Some (sql, reference) ->
      ignore
        (send t c0 [||]
           { Gen.op = Gen.Read; body = Gen.Text sql; check = reference (); apply = Gen.nop }));
  List.iter (fun r -> ignore (Client.quit r.client)) results;
  let samples = Array.of_list (List.concat_map (fun (r : conn_result) -> r.samples) results) in
  Array.sort (fun a b -> compare a.at b.at) samples;
  { cold; tally = t; samples; before = !before; after }

let latencies run op =
  Array.of_list
    (List.filter_map
       (fun s -> if s.op = op then Some s.lat else None)
       (Array.to_list run.samples))
