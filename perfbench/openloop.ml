(* Open loop over real sockets against a separate `taqp serve --listen`
   process. One generator, at most two connections: SUBMIT frames go
   out on a fixed wall schedule without waiting for each QUEUED reply,
   so a slow server cannot slow the offered load down. Each job is
   timed from the instant it was due, which charges a generator stall
   to the jobs it delayed, and the generator's own lateness is kept per
   rate step. *)

module Wire = Taqp_net.Wire
module Client = Taqp_net.Client
module Sched_journal = Taqp_sched.Sched_journal
module Engine = Taqp_sched.Engine

(* Index of the first [sub] in [s]. @raise Not_found *)
let find_sub s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then raise Not_found else if String.sub s i k = sub then i else go (i + 1) in
  go 0

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* ---- the server process ---------------------------------------- *)

type server = { pid : int; port : int; dir : string; tag : string; mutable reaped : bool }

let server_args ~cli ~dir ~tag =
  [|
    cli; "serve"; "--dir"; dir; "--listen"; "0"; "--gate"; "eager"; "--policy"; "edf";
    "--admission"; "--max-queue"; "8"; "--headroom"; "1.2"; "--cache"; "1"; "--domains"; "1";
    "--journal"; Filename.concat dir (tag ^ ".journal");
  |]

let err_path ~dir ~tag = Filename.concat dir (tag ^ ".err")

let read_file p = try In_channel.with_open_bin p In_channel.input_all with Sys_error _ -> ""

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Kill and reap; a no-op once the server has been reaped, so its pid
   is never signalled after the kernel may have reused it. *)
let kill s =
  if not s.reaped then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.reaped <- true
  end

(* Wait up to [timeout] s for a normal exit, then kill. *)
let reap s ~timeout =
  let t0 = Spans.now_ns () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Spans.since_s t0 < timeout -> Unix.sleepf 0.01; go ()
    | 0, _ -> kill s; None
    | _, st -> s.reaped <- true; Some st
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> s.reaped <- true; None
  in
  go ()

(* Spawn the server on an ephemeral port, read the port back from its
   log, and wait for a HELLO. *)
let start ~cli ~dir ~tag =
  let out = Unix.openfile (Filename.concat dir (tag ^ ".out")) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let err = Unix.openfile (err_path ~dir ~tag) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid = Unix.create_process cli (server_args ~cli ~dir ~tag) Unix.stdin out err in
  Unix.close out;
  Unix.close err;
  let s0 = { pid; port = 0; dir; tag; reaped = false } in
  let t0 = Spans.now_ns () in
  let rec port () =
    let log = read_file (err_path ~dir ~tag) in
    let marker = "listening on 127.0.0.1:" in
    match
      let i = find_sub log marker in
      Scanf.sscanf (String.sub log (i + String.length marker) (String.length log - i - String.length marker)) "%d" Fun.id
    with
    | p -> p
    | exception (Not_found | Scanf.Scan_failure _ | End_of_file | Failure _) ->
        if not (alive pid) then (s0.reaped <- true; failf "server exited before listening: %s" log)
        else if Spans.since_s t0 > 60.0 then (kill s0; failf "server did not listen within 60 s")
        else (Unix.sleepf 0.002; port ())
  in
  match port () with
  | exception e -> kill s0; raise e
  | port -> (
      let s = { s0 with port } in
      match Client.connect_retry ~connect_timeout:5.0 ~read_timeout:10.0 ~port () with
      | c -> Client.close c; s
      | exception e -> kill s; raise e)

(* ---- one job ---------------------------------------------------- *)

type job = {
  index : int;  (** request index in the workload's stream *)
  due : float;  (** monotonic seconds *)
  mutable sent : float;
  mutable replied : float;  (** QUEUED or door REJECT *)
  mutable replies : int;
  mutable id : int option;
  mutable terminal : float;
  mutable terminals : int;
  mutable door_refused : bool;
  mutable admission_refused : bool;
  mutable result : Sched_journal.done_record option;
}

type conn = {
  fd : Unix.file_descr;
  rd : Wire.reader;
  out : Buffer.t;
  mutable out_off : int;
  awaiting : job Queue.t;  (** SUBMITs whose synchronous reply is due *)
  mutable drained : bool;  (** DRAIN_DONE seen on this connection *)
}

type run = {
  by_id : (int, job) Hashtbl.t;
  by_index : (int, job) Hashtbl.t;
  early_refusals : (int, float) Hashtbl.t;  (** admission REJECT before its QUEUED *)
  mutable drain : Engine.summary option;
  scratch : Bytes.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let c = { fd; rd = Wire.reader (); out = Buffer.create 65536; out_off = 0; awaiting = Queue.create ();
      drained = false } in
  ignore (Unix.write_substring fd Wire.magic 0 (String.length Wire.magic));
  Unix.set_nonblock fd;
  c

let flush c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then begin
    (match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
    | n -> c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    if c.out_off = Buffer.length c.out then (Buffer.clear c.out; c.out_off <- 0)
  end

let handle r c now = function
  | Wire.Hello _ -> ()
  | Wire.Queued { job_id; _ } -> (
      match Queue.take_opt c.awaiting with
      | None -> failf "QUEUED %d without an outstanding SUBMIT" job_id
      | Some j ->
          j.replied <- now;
          j.replies <- j.replies + 1;
          j.id <- Some job_id;
          Hashtbl.replace r.by_id job_id j;
          match Hashtbl.find_opt r.early_refusals job_id with
          | Some t ->
              Hashtbl.remove r.early_refusals job_id;
              j.admission_refused <- true; j.terminal <- t; j.terminals <- j.terminals + 1
          | None -> ())
  | Wire.Rejected { job_id = None; _ } -> (
      match Queue.take_opt c.awaiting with
      | None -> failf "door REJECT without an outstanding SUBMIT"
      | Some j ->
          j.replied <- now;
          j.replies <- j.replies + 1;
          j.door_refused <- true;
          j.terminal <- now;
          j.terminals <- j.terminals + 1)
  | Wire.Rejected { job_id = Some id; _ } -> (
      match Hashtbl.find_opt r.by_id id with
      | Some j -> j.admission_refused <- true; j.terminal <- now; j.terminals <- j.terminals + 1
      | None -> Hashtbl.replace r.early_refusals id now)
  | Wire.Result d -> (
      let index =
        try Scanf.sscanf d.Sched_journal.d_label "q%d%!" Fun.id
        with _ -> failf "RESULT with foreign label %S" d.Sched_journal.d_label
      in
      match Hashtbl.find_opt r.by_index index with
      | None -> failf "RESULT for unknown request %d" index
      | Some j -> j.result <- Some d; j.terminal <- now; j.terminals <- j.terminals + 1)
  | Wire.Drain_done s -> c.drained <- true; r.drain <- Some s
  | Wire.Error { message } -> failf "server ERROR frame: %s" message
  | m -> failf "unexpected %s frame" (Wire.tag_name m)

let pump r c =
  match Unix.read c.fd r.scratch 0 (Bytes.length r.scratch) with
  | 0 -> failf "server closed the connection"
  | n ->
      Wire.feed c.rd r.scratch n;
      let now = Spans.now_s () in
      let rec frames () =
        match Wire.next c.rd with
        | Ok None -> ()
        | Error e -> failf "bad frame from server: %s" e
        | Ok (Some payload) -> (
            match Wire.decode payload with
            | Ok m -> handle r c now m; frames ()
            | Error e -> failf "undecodable frame: %s" e)
      in
      frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let poll r conns ~timeout =
  let writers = List.filter (fun c -> Buffer.length c.out > c.out_off) conns in
  match
    Unix.select (List.map (fun c -> c.fd) conns) (List.map (fun c -> c.fd) writers) [] (Float.max 0.0 timeout)
  with
  | readable, writable, _ ->
      List.iter (fun c -> if List.memq c.fd writable then flush c) writers;
      List.iter (fun c -> if List.memq c.fd readable then pump r c) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let settled j = j.terminals > 0

(* Offer [n] jobs at [rate] per second starting now, and wait until
   every one of them is terminal. *)
let step r conns ~line ~first ~rate ~n ~settle =
  let conns_a = Array.of_list conns in
  let t0 = Spans.now_s () +. 0.005 in
  let jobs =
    Array.init n (fun i ->
        let j =
          { index = first + i; due = t0 +. (float_of_int i /. rate); sent = nan; replied = nan;
            replies = 0; id = None; terminal = nan; terminals = 0; door_refused = false;
            admission_refused = false; result = None }
        in
        Hashtbl.replace r.by_index j.index j;
        j)
  in
  let next = ref 0 in
  let last_due = t0 +. (float_of_int (n - 1) /. rate) in
  let rec loop () =
    let now = Spans.now_s () in
    while !next < n && jobs.(!next).due <= now do
      let j = jobs.(!next) in
      let c = conns_a.(!next mod Array.length conns_a) in
      Buffer.add_string c.out (Wire.frame_message (Wire.Submit { line = line j.index }));
      Queue.add j c.awaiting;
      j.sent <- now;
      incr next
    done;
    List.iter flush conns;
    if !next < n || not (Array.for_all settled jobs) then begin
      if now > last_due +. settle then
        failf "%d jobs without a terminal reply %.0f s after the last was due"
          (Array.fold_left (fun a j -> if settled j then a else a + 1) 0 jobs) settle;
      let timeout = if !next < n then jobs.(!next).due -. now else 0.05 in
      poll r conns ~timeout;
      loop ()
    end
  in
  loop ();
  jobs

let create_run () =
  { by_id = Hashtbl.create 4096; by_index = Hashtbl.create 4096;
    early_refusals = Hashtbl.create 16; drain = None; scratch = Bytes.create 65536 }

(* Ask for DRAIN on the first connection and wait for the broadcast
   DRAIN_DONE on every connection. *)
let drain r conns =
  let c0 = List.hd conns in
  Buffer.add_string c0.out (Wire.frame_message Wire.Drain);
  let t0 = Spans.now_ns () in
  while not (List.for_all (fun c -> c.drained) conns) do
    if Spans.since_s t0 > 30.0 then failf "no DRAIN_DONE within 30 s";
    poll r conns ~timeout:0.05
  done;
  match r.drain with Some s -> s | None -> failf "no DRAIN_DONE summary"

(* Exactly one synchronous reply per SUBMIT, exactly one terminal push
   per queued job, and counts that reconcile with the DRAIN_DONE
   summary. *)
let reconcile jobs (s : Engine.summary) =
  let count f = Array.fold_left (fun a j -> if f j then a + 1 else a) 0 jobs in
  let bad_reply = count (fun j -> j.replies <> 1) in
  let bad_terminal = count (fun j -> j.terminals <> 1) in
  if bad_reply > 0 then failf "%d SUBMITs without exactly one QUEUED/REJECT reply" bad_reply;
  if bad_terminal > 0 then failf "%d jobs without exactly one terminal reply" bad_terminal;
  let queued = count (fun j -> j.id <> None) in
  let admission = count (fun j -> j.admission_refused) in
  let results = count (fun j -> j.result <> None) in
  if s.Engine.submitted <> queued then
    failf "DRAIN_DONE says %d submitted, the client saw %d queued" s.Engine.submitted queued;
  if s.Engine.rejected <> admission then
    failf "DRAIN_DONE says %d rejected, the client saw %d admission REJECTs" s.Engine.rejected admission;
  if s.Engine.completed + s.Engine.expired <> results then
    failf "DRAIN_DONE says %d completed + %d expired, the client saw %d RESULTs"
      s.Engine.completed s.Engine.expired results
