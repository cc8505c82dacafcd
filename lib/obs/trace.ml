(** Bounded JSONL event tracer.

    Structural events of a run — engine switches, block flush/install/
    fetch/evict, aliasing violations, checkpoint recoveries — are emitted
    one JSON object per line to a sink. The tracer is designed so that the
    disabled path costs nothing: call sites guard event construction with
    {!enabled}, which is a single pattern match on the sink, so no event
    value is ever allocated when tracing is off.

    The trace is bounded: after [limit] events further emissions are
    counted in [dropped] instead of written, so a long run cannot fill the
    disk. Every record carries the machine cycle stamped by the machine at
    the start of the step that produced it. *)

type event =
  | Engine_switch of { to_vliw : bool; pc : int }
      (** the machine handed the pipeline to the other engine; [pc] is the
          ISA address execution continues at *)
  | Block_flush of { tag : int; lis : int; slots : int }
      (** the Scheduler Unit froze a block (tag = first-instruction
          address) with [lis] long instructions and [slots] filled slots *)
  | Block_install of { tag : int }
      (** a flushed block finished draining and entered the VLIW Cache *)
  | Block_evict of { tag : int }  (** the VLIW Cache evicted a block *)
  | Block_fetch of { tag : int }
      (** the Fetch Unit hit the VLIW Cache and the block begins execution *)
  | Aliasing_violation of { tag : int; li : int }
      (** §3.10 order-field violation detected in long instruction [li] *)
  | Checkpoint_recovery of { undone : int }
      (** §3.11 rollback: registers restored, [undone] buffered/overwritten
          stores undone or annulled *)

let event_names =
  [
    "engine_switch";
    "block_flush";
    "block_install";
    "block_evict";
    "block_fetch";
    "aliasing_violation";
    "checkpoint_recovery";
  ]

type sink = Null | Channel of out_channel | Memory of Buffer.t

type t = {
  mutable now : int;  (** machine cycle stamped by the machine each step *)
  limit : int;
  mutable emitted : int;
  mutable dropped : int;
  sink : sink;
}

let default_limit = 1_000_000

let null = { now = 0; limit = 0; emitted = 0; dropped = 0; sink = Null }

let make ?(limit = default_limit) sink =
  { now = 0; limit; emitted = 0; dropped = 0; sink }

let to_channel ?limit oc = make ?limit (Channel oc)
let to_buffer ?limit buf = make ?limit (Memory buf)

let enabled t = match t.sink with Null -> false | Channel _ | Memory _ -> true

let stamp t cycle = if enabled t then t.now <- cycle

let emitted t = t.emitted
let dropped t = t.dropped

let line_of ~cycle ev =
  match ev with
  | Engine_switch { to_vliw; pc } ->
    Printf.sprintf "{\"cycle\":%d,\"ev\":\"engine_switch\",\"to\":\"%s\",\"pc\":%d}"
      cycle
      (if to_vliw then "vliw" else "primary")
      pc
  | Block_flush { tag; lis; slots } ->
    Printf.sprintf
      "{\"cycle\":%d,\"ev\":\"block_flush\",\"tag\":%d,\"lis\":%d,\"slots\":%d}"
      cycle tag lis slots
  | Block_install { tag } ->
    Printf.sprintf "{\"cycle\":%d,\"ev\":\"block_install\",\"tag\":%d}" cycle tag
  | Block_evict { tag } ->
    Printf.sprintf "{\"cycle\":%d,\"ev\":\"block_evict\",\"tag\":%d}" cycle tag
  | Block_fetch { tag } ->
    Printf.sprintf "{\"cycle\":%d,\"ev\":\"block_fetch\",\"tag\":%d}" cycle tag
  | Aliasing_violation { tag; li } ->
    Printf.sprintf
      "{\"cycle\":%d,\"ev\":\"aliasing_violation\",\"tag\":%d,\"li\":%d}" cycle
      tag li
  | Checkpoint_recovery { undone } ->
    Printf.sprintf "{\"cycle\":%d,\"ev\":\"checkpoint_recovery\",\"undone\":%d}"
      cycle undone

let emit t ev =
  match t.sink with
  | Null -> ()
  | _ when t.emitted >= t.limit -> t.dropped <- t.dropped + 1
  | Channel oc ->
    output_string oc (line_of ~cycle:t.now ev);
    output_char oc '\n';
    t.emitted <- t.emitted + 1
  | Memory buf ->
    Buffer.add_string buf (line_of ~cycle:t.now ev);
    Buffer.add_char buf '\n';
    t.emitted <- t.emitted + 1

let close t = match t.sink with Channel oc -> flush oc | Null | Memory _ -> ()

(* ------------------------------------------------------------------ *)
(* Reading a trace back (tests, tooling)                                *)
(* ------------------------------------------------------------------ *)

(** Parse one JSONL record into [(cycle, event-name, fields)].
    @raise Json.Parse_error on malformed lines, [Failure] on records
    missing the required keys. *)
let parse_line line =
  let j = Json.of_string line in
  let cycle =
    match Option.bind (Json.member "cycle" j) Json.to_int with
    | Some c -> c
    | None -> failwith "trace record without integer \"cycle\""
  in
  let ev =
    match Option.bind (Json.member "ev" j) Json.to_str with
    | Some e -> e
    | None -> failwith "trace record without string \"ev\""
  in
  (cycle, ev, j)

(** Event-name histogram of a raw JSONL trace string. *)
let count_events contents =
  let counts = Hashtbl.create 8 in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let _, ev, _ = parse_line line in
           Hashtbl.replace counts ev
             (1 + Option.value ~default:0 (Hashtbl.find_opt counts ev))
         end);
  counts
