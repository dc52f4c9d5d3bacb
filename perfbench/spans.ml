(* Wall-clock spans recorded from the benchmark's own code, around its
   calls into each layer. The spans go through the program's own
   [Taqp_obs.Tracer] into an in-memory sink, stamped with bechamel's
   monotonic clock, and are summarised when the run ends. *)

module Tracer = Taqp_obs.Tracer
module Event = Taqp_obs.Event

let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type t = {
  tracer : Tracer.t;
  events : unit -> Event.t list;
  work : (string, int) Hashtbl.t;  (** units of work done inside each span name *)
}

let create () =
  let sink, events = Taqp_obs.Sink.memory () in
  { tracer = Tracer.make ~now:now_s ~sink; events; work = Hashtbl.create 32 }

(* [n]: how many calls (or tuples, or units) the span covers, so a
   batch of sub-microsecond calls can be timed as one span. *)
let span ?(n = 1) t name f =
  Hashtbl.replace t.work name (n + Option.value (Hashtbl.find_opt t.work name) ~default:0);
  Tracer.with_span t.tracer ~cat:"bench" name f

let work t name = Option.value (Hashtbl.find_opt t.work name) ~default:0

type span = { name : string; start : float; stop : float; parent : int option }

(* Pair Begin/End events into spans (they nest: one thread records). *)
let spans t =
  let out = ref [] and stack = ref [] and next = ref 0 in
  List.iter
    (fun (e : Event.t) ->
      match e.phase with
      | Event.Begin ->
          let parent = match !stack with (id, _, _) :: _ -> Some id | [] -> None in
          stack := (!next, e.ts, parent) :: !stack;
          incr next
      | Event.End -> (
          match !stack with
          | (id, start, parent) :: rest ->
              stack := rest;
              out := (id, { name = e.name; start; stop = e.ts; parent }) :: !out
          | [] -> ())
      | _ -> ())
    (t.events ());
  List.sort (fun (a, _) (b, _) -> compare a b) !out |> List.map snd |> Array.of_list

(* Durations in seconds of every span named [name]. *)
let durations spans name =
  Array.to_list spans
  |> List.filter_map (fun s ->
         if s.name = name then Some (s.stop -. s.start) else None)
  |> Array.of_list

(* Per-name count, total and self seconds (self = minus children). *)
let table spans =
  let children = Hashtbl.create 64 in
  Array.iteri
    (fun _ s ->
      match s.parent with
      | Some p -> Hashtbl.replace children p ((s.start, s.stop) :: (try Hashtbl.find children p with Not_found -> []))
      | None -> ())
    spans;
  let acc = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let kids = try Hashtbl.find children i with Not_found -> [] in
      let self = Stats.self_time ~start:s.start ~stop:s.stop kids in
      let n, tot, sf = try Hashtbl.find acc s.name with Not_found -> (0, 0.0, 0.0) in
      Hashtbl.replace acc s.name (n + 1, tot +. (s.stop -. s.start), sf +. self))
    spans;
  Hashtbl.fold (fun name (n, tot, sf) l -> (name, n, tot, sf) :: l) acc []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a)
