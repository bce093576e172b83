(* Workload generators: the data each workload loads, the request stream
   each connection sends, and the reference every reply is checked
   against.  Everything is a function of the seed (and, for write_churn,
   of which writes succeeded); nothing here asks the engine for an
   answer. *)

open Mmdb_storage

type op = Read | Write

type body =
  | Text of string  (** a literal-text Query frame *)
  | Exec of { slot : int; params : Value.t list }
      (** EXEC_PREPARED of the connection's [slot]-th prepared text *)

(* What a correct reply looks like. *)
type check =
  | Kv_row of int  (** exactly one row, one int column encoding the key *)
  | Rows of { count : int; sum : int }  (** row count + {!checksum} *)
  | Value_is of int  (** exactly one row, one int column equal to this *)
  | Ack of string  (** a Message reply with exactly this text *)

type req = {
  op : op;
  body : body;
  check : check;
  apply : unit -> unit;  (** update the connection's model on success *)
}

type conn = { next : unit -> req }

type t = {
  name : string;
  setup : string list;  (** frames: schema, bulk load, index builds *)
  prepared : string list;  (** texts each connection prepares, by slot *)
  warmup : int;  (** leading requests per connection not timed *)
  conns : conn array;
  final : (string * (unit -> check)) option;
      (** a query run after the measured window, and its reference from
          the connections' models at that point *)
}

let n_conns = 2

(* --- order-independent result checksum -------------------------------- *)

let value_hash : Value.t -> int = function
  | Value.Int n -> n
  | Value.Float f -> Int64.to_int (Int64.bits_of_float f)
  | Value.Str s -> Hashtbl.hash s
  | Value.Bool b -> if b then 3 else 5
  | Value.Null -> 7
  | Value.Ref _ | Value.Refs _ -> 11

let mix h =
  let h = (h lxor (h lsr 31)) * 0x1fb5d329728ea185 in
  let h = (h lxor (h lsr 27)) * 0x01dadef4bc2dd44d in
  h lxor (h lsr 33)

let row_hash row =
  mix (Array.fold_left (fun h v -> (h * 1_000_003) + value_hash v) 17 row)

(* Sum of row hashes: the same for every order the engine returns. *)
let checksum rows = List.fold_left (fun s r -> s + row_hash r) 0 rows

(* --- helpers ----------------------------------------------------------- *)

let rng seed salt = Random.State.make [| seed; salt |]
let pick st a = a.(Random.State.int st (Array.length a))

(* Bulk-load frames of 250 statements each. *)
let load_frames stmts =
  let a = Array.of_list stmts and per = 250 in
  List.init
    ((Array.length a + per - 1) / per)
    (fun i ->
      String.concat " "
        (Array.to_list (Array.sub a (i * per) (min per (Array.length a - (i * per))))))
let nop () = ()

(* A growable FIFO of ints with random access, for a connection's own
   inserted keys (oldest first). *)
module Fifo = struct
  type t = { mutable a : int array; mutable head : int; mutable tail : int }

  let create () = { a = Array.make 1024 0; head = 0; tail = 0 }
  let length q = q.tail - q.head
  let get q i = q.a.(q.head + i)

  let push q x =
    if q.tail = Array.length q.a then begin
      let n = length q in
      let a = if 2 * n > Array.length q.a then Array.make (2 * Array.length q.a) 0 else q.a in
      Array.blit q.a q.head a 0 n;
      q.a <- a;
      q.head <- 0;
      q.tail <- n
    end;
    q.a.(q.tail) <- x;
    q.tail <- q.tail + 1

  let drop q n = q.head <- q.head + n
end

(* --- kv_point ----------------------------------------------------------- *)

let kv_rows = 10_000

(* V encodes K as its residue; updates change only the quotient. *)
let kv_mod = 100_000

let kv_point ~seed =
  let st = rng seed 1 in
  let setup =
    "CREATE TABLE KV (K int PRIMARY KEY, V int);"
    :: load_frames
         (List.init kv_rows (fun k ->
              Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" k
                (k + (kv_mod * Random.State.int st 1000))))
  in
  let conn c =
    let st = rng seed (100 + c) in
    let next () =
      if Random.State.int st 10 < 9 then
        let k = Random.State.int st kv_rows in
        {
          op = Read;
          body = Text (Printf.sprintf "SELECT V FROM KV WHERE K = %d;" k);
          check = Kv_row k;
          apply = nop;
        }
      else
        (* connection [c] owns the keys congruent to c modulo n_conns *)
        let k = c + (n_conns * Random.State.int st (kv_rows / n_conns)) in
        let v = k + (kv_mod * (1 + Random.State.int st 999)) in
        {
          op = Write;
          body = Text (Printf.sprintf "UPDATE KV SET V = %d WHERE K = %d;" v k);
          check = Ack "1 tuples updated in KV";
          apply = nop;
        }
    in
    { next }
  in
  {
    name = "kv_point";
    setup;
    prepared = [];
    warmup = 32;
    conns = Array.init n_conns conn;
    final = None;
  }

(* --- analytic ----------------------------------------------------------- *)

let e_rows = 30_000
let d_rows = 3_000
let sal_max = 1_000_000
let age_lo = 20
let n_ages = 46
let per_shape = 48

type emp = { k : int; d : int; sal : int; age : int }

(* One query text with the reference result computed from the data. *)
type query = { sql : string; count : int; sum : int }

let analytic_queries ~emps ~dg st =
  let q sql rows = { sql; count = List.length rows; sum = checksum rows } in
  let ints l = Array.of_list (List.map (fun n -> Value.Int n) l) in
  let sal_in lo hi e = e.sal >= lo && e.sal <= hi in
  let range w =
    let w = w + Random.State.int st w in
    let lo = Random.State.int st (sal_max - w) in
    (lo, lo + w)
  in
  let filter p = List.filter p emps in
  let join () =
    let lo, hi = range 10_000 in
    q
      (Printf.sprintf
         "SELECT E.K, D.G FROM E JOIN D ON E.D = D.K WHERE E.SAL BETWEEN %d AND %d;"
         lo hi)
      (List.map (fun e -> ints [ e.k; dg.(e.d) ]) (filter (sal_in lo hi)))
  in
  let group () =
    let w = 3_000 + Random.State.int st 7_000 in
    let lo = Random.State.int st (e_rows - w) in
    let hi = lo + w in
    let count = Array.make n_ages 0 and sum = Array.make n_ages 0 in
    List.iter
      (fun e ->
        if e.k >= lo && e.k <= hi then begin
          count.(e.age - age_lo) <- count.(e.age - age_lo) + 1;
          sum.(e.age - age_lo) <- sum.(e.age - age_lo) + e.sal
        end)
      emps;
    let rows = ref [] in
    Array.iteri
      (fun i n ->
        if n > 0 then
          rows :=
            [|
              Value.Int (age_lo + i);
              Value.Int n;
              Value.Float (float_of_int sum.(i) /. float_of_int n);
            |]
            :: !rows)
      count;
    q
      (Printf.sprintf
         "SELECT E.AGE, COUNT(*), AVG(E.SAL) FROM E WHERE E.K BETWEEN %d AND %d \
          GROUP BY E.AGE;"
         lo hi)
      !rows
  in
  let distinct () =
    let lo, hi = range 20_000 in
    let seen = Hashtbl.create 1024 in
    List.iter
      (fun e -> if sal_in lo hi e then Hashtbl.replace seen (e.d, e.age) ())
      emps;
    q
      (Printf.sprintf
         "SELECT DISTINCT E.D, E.AGE FROM E WHERE E.SAL BETWEEN %d AND %d;" lo hi)
      (Hashtbl.fold (fun (d, a) () acc -> ints [ d; a ] :: acc) seen [])
  in
  let indexed () =
    let lo, hi = range 5_000 in
    q
      (Printf.sprintf "SELECT E.K, E.SAL FROM E WHERE E.SAL BETWEEN %d AND %d;"
         lo hi)
      (List.map (fun e -> ints [ e.k; e.sal ]) (filter (sal_in lo hi)))
  in
  let scan () =
    let age = age_lo + Random.State.int st n_ages in
    let w = 300 + Random.State.int st 1_200 in
    let lo = Random.State.int st (d_rows - w) in
    q
      (Printf.sprintf
         "SELECT E.K, E.SAL FROM E WHERE E.AGE = %d AND E.D BETWEEN %d AND %d;"
         age lo (lo + w))
      (List.map
         (fun e -> ints [ e.k; e.sal ])
         (filter (fun e -> e.age = age && e.d >= lo && e.d <= lo + w)))
  in
  (* interleave the shapes so each connection's warm-up half covers all *)
  Array.concat
    (List.init per_shape (fun _ ->
         [| join (); group (); distinct (); indexed (); scan () |]))

let analytic ~seed =
  let st = rng seed 2 in
  let emps =
    List.init e_rows (fun k ->
        {
          k;
          d = Random.State.int st d_rows;
          sal = Random.State.int st sal_max;
          age = age_lo + Random.State.int st n_ages;
        })
  in
  let dg = Array.init d_rows (fun _ -> Random.State.int st 100) in
  let setup =
    [
      "CREATE TABLE D (K int PRIMARY KEY, G int, NAME string);";
      "CREATE TABLE E (K int PRIMARY KEY, D int, SAL int, AGE int);";
    ]
    @ load_frames
        (List.init d_rows (fun k ->
             Printf.sprintf "INSERT INTO D VALUES (%d, %d, 'dept%d');" k dg.(k) k))
    @ load_frames
        (List.map
           (fun e ->
             Printf.sprintf "INSERT INTO E VALUES (%d, %d, %d, %d);" e.k e.d
               e.sal e.age)
           emps)
    @ [ "CREATE INDEX e_sal ON E (SAL) USING ttree;" ]
  in
  let queries = analytic_queries ~emps ~dg st in
  let n = Array.length queries in
  (* Reads walk the pool in passes, the first in order and each later one
     in a fresh shuffle, with an edit after every fourth read: every run
     sends the same mix, and the warm-up pass fills the statement cache
     with the whole pool before timing starts. *)
  let warmup = n + (n / 4) in
  let st = rng seed 200 in
  let order = Array.init n Fun.id in
  let i = ref 0 and reads = ref 0 in
  let next () =
    incr i;
    if !i mod 5 = 0 then
      (* a dimension edit no query reads: results stay as computed *)
      let k = Random.State.int st d_rows in
      {
        op = Write;
        body =
          Exec
            {
              slot = 0;
              params = [ Value.Str (Printf.sprintf "dept%d-%d" k !i); Value.Int k ];
            };
        check = Ack "1 tuples updated in D";
        apply = nop;
      }
    else begin
      if !reads > 0 && !reads mod n = 0 then
        for j = n - 1 downto 1 do
          let r = Random.State.int st (j + 1) in
          let t = order.(j) in
          order.(j) <- order.(r);
          order.(r) <- t
        done;
      let q = queries.(order.(!reads mod n)) in
      incr reads;
      { op = Read; body = Text q.sql; check = Rows { count = q.count; sum = q.sum }; apply = nop }
    end
  in
  {
    name = "analytic";
    setup;
    prepared = [ "UPDATE D SET NAME = ? WHERE K = ?;" ];
    warmup;
    (* one analyst: with two connections the run-to-run spread of this
       CPU-bound mix tripled on a two-core host *)
    conns = [| { next } |];
    final = None;
  }

(* --- write_churn -------------------------------------------------------- *)

(* Keys a connection inserts start here, one contiguous range each. *)
let fresh_base c = 1_000_000 * (c + 1)
let churn_mod = 10_000_000

let write_churn ~seed =
  let st = rng seed 3 in
  let start_v = Array.init kv_rows (fun k -> k + (churn_mod * Random.State.int st 1000)) in
  let setup =
    ("CREATE TABLE KV (K int PRIMARY KEY, V int);"
    :: load_frames
         (List.init kv_rows (fun k ->
              Printf.sprintf "INSERT INTO KV VALUES (%d, %d);" k start_v.(k))))
    @ [ "CREATE INDEX kv_v ON KV (V) USING ttree;" ]
  in
  (* Each connection's model: the value of every key it owns (its share of
     the starting rows plus its live inserts), which only it writes. *)
  let models = Array.init n_conns (fun _ -> Hashtbl.create (2 * kv_rows)) in
  let conn c =
    let st = rng seed (300 + c) in
    let model = models.(c) in
    let starting = Array.init (kv_rows / n_conns) (fun i -> c + (n_conns * i)) in
    Array.iter (fun k -> Hashtbl.replace model k start_v.(k)) starting;
    let inserted = Fifo.create () in
    let fresh = ref 0 in
    let value k = k + (churn_mod * (1 + Random.State.int st 999)) in
    let own_key () =
      if Fifo.length inserted > 0 && Random.State.bool st then
        Fifo.get inserted (Random.State.int st (Fifo.length inserted))
      else pick st starting
    in
    let insert () =
      let k = fresh_base c + !fresh in
      incr fresh;
      let v = value k in
      {
        op = Write;
        body = Exec { slot = 0; params = [ Value.Int k; Value.Int v ] };
        check = Ack "1 tuple inserted";
        apply =
          (fun () ->
            Hashtbl.replace model k v;
            Fifo.push inserted k);
      }
    in
    let next () =
      let r = Random.State.int st 100 in
      if r < 40 then insert ()
      else if r < 60 then
        (* the two oldest own inserts: one delete removes as many rows as
           two inserts add, so the table size stays level *)
        if Fifo.length inserted < 2 then insert ()
        else
          let a = Fifo.get inserted 0 and b = Fifo.get inserted 1 in
          {
            op = Write;
            body = Exec { slot = 1; params = [ Value.Int a; Value.Int b ] };
            check = Ack "2 tuples deleted from KV";
            apply =
              (fun () ->
                Hashtbl.remove model a;
                Hashtbl.remove model b;
                Fifo.drop inserted 2);
          }
      else if r < 80 then begin
        let k1 = pick st starting in
        let k2 = ref (pick st starting) in
        while !k2 = k1 do k2 := pick st starting done;
        let k2 = !k2 in
        let v1 = value k1 and v2 = value k2 in
        {
          op = Write;
          body =
            Text
              (Printf.sprintf
                 "BEGIN; UPDATE KV SET V = %d WHERE K = %d; UPDATE KV SET V = \
                  %d WHERE K = %d; COMMIT;"
                 v1 k1 v2 k2);
          check = Ack "committed";
          apply =
            (fun () ->
              Hashtbl.replace model k1 v1;
              Hashtbl.replace model k2 v2);
        }
      end
      else
        let k = own_key () in
        {
          op = Read;
          body = Exec { slot = 2; params = [ Value.Int k ] };
          check = Value_is (Hashtbl.find model k);
          apply = nop;
        }
    in
    { next }
  in
  let conns = Array.init n_conns conn in
  let reference () =
    let rows =
      Array.fold_left
        (fun acc m -> Hashtbl.fold (fun k v acc -> [| Value.Int k; Value.Int v |] :: acc) m acc)
        [] models
    in
    Rows { count = List.length rows; sum = checksum rows }
  in
  {
    name = "write_churn";
    setup;
    prepared =
      [
        "INSERT INTO KV VALUES (?, ?);";
        "DELETE FROM KV WHERE K BETWEEN ? AND ?;";
        "SELECT V FROM KV WHERE K = ?;";
      ];
    warmup = 64;
    conns;
    final = Some ("SELECT K, V FROM KV;", reference);
  }

let names = [ "kv_point"; "analytic"; "write_churn" ]

let make name ~seed =
  match name with
  | "kv_point" -> kv_point ~seed
  | "analytic" -> analytic ~seed
  | "write_churn" -> write_churn ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
