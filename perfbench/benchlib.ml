(* Helpers of the benchmark program, kept apart from it so the self-tests
   can check them: the percentile rule, a counting store wrapper and a
   parser for the telemetry registry's Prometheus exposition text. *)

(* ------------------------------------------------------------------ *)
(* Percentile rule                                                     *)

type percentile = {
  value : float;
  samples : int;  (** sample count the percentile was taken over *)
  beyond : int;  (** samples strictly after it in sorted order *)
}

(* Nearest-rank percentile [p] (0 < p < 1) of [xs], emitted only when at
   least 10 samples lie beyond it — a p99 over 50 samples is the
   second-largest sample, not a tail estimate. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 || p <= 0.0 || p >= 1.0 then None
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    let beyond = n - rank in
    if beyond < 10 then None
    else Some { value = sorted.(rank - 1); samples = n; beyond }
  end

(* The median of set-up repetitions and solve times: a plain median, no
   tail rule (it describes a handful of equal-work repetitions). *)
let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  end

(* ------------------------------------------------------------------ *)
(* Counting store wrapper                                              *)

type counts = {
  mutable appends : int;
  mutable append_bytes : int;
  mutable syncs : int;
  mutable resets : int;
  mutable snapshots : int;
  mutable snapshot_bytes : int;
}

let counts () =
  {
    appends = 0;
    append_bytes = 0;
    syncs = 0;
    resets = 0;
    snapshots = 0;
    snapshot_bytes = 0;
  }

let reset c =
  c.appends <- 0;
  c.append_bytes <- 0;
  c.syncs <- 0;
  c.resets <- 0;
  c.snapshots <- 0;
  c.snapshot_bytes <- 0

(* Durability barriers: every call that ends in an fsync on the file
   store — [wal_sync], the truncating [wal_reset], and the atomic
   [snap_write]. *)
let barriers c = c.syncs + c.resets + c.snapshots

(* Count every durable-write call through [store] into [c]; with
   [traced] also run appends, syncs and snapshot writes each under a
   span of its own ([journal.append], [journal.sync],
   [journal.snapshot]). Several stores may share one [c]. *)
let wrap ?(traced = false) c (store : Journal.Store.t) =
  let time name f x =
    if traced then Telemetry.Trace.with_span name (fun () -> f x) else f x
  in
  {
    store with
    Journal.Store.wal_append =
      (fun s ->
        c.appends <- c.appends + 1;
        c.append_bytes <- c.append_bytes + String.length s;
        time "journal.append" store.wal_append s);
    wal_sync =
      (fun () ->
        c.syncs <- c.syncs + 1;
        time "journal.sync" store.wal_sync ());
    wal_reset =
      (fun () ->
        c.resets <- c.resets + 1;
        store.wal_reset ());
    snap_write =
      (fun s ->
        c.snapshots <- c.snapshots + 1;
        c.snapshot_bytes <- c.snapshot_bytes + String.length s;
        time "journal.snapshot" store.snap_write s);
  }

(* ------------------------------------------------------------------ *)
(* Self time per layer                                                 *)

(* The layers a span can belong to, in the order they are reported. *)
let layers =
  [ "acl"; "placement"; "ilp"; "runtime"; "journal"; "serve"; "traffic" ]

(* A span's layer is its name up to the first dot; [Placement.Solve]'s
   own stage spans ([solve.*]) belong to placement, except its
   redundancy stage, which runs [Acl.Redundancy].  [None] for a name
   outside [layers]. *)
let layer_of name =
  let prefix =
    match String.index_opt name '.' with
    | _ when name = "solve.redundancy" -> "acl"
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let prefix = if prefix = "solve" then "placement" else prefix in
  if List.mem prefix layers then Some prefix else None

let duration (i : Telemetry.Trace.info) = i.end_s -. i.start_s

(* Self time of every span — its duration less its children's — summed
   by span name, largest first.  Each instant under a span is charged to
   the innermost span covering it, so work a layer does inside another
   layer's call without a span of its own counts for the caller. *)
let self_times (spans : Telemetry.Trace.info list) =
  let children = Hashtbl.create 256 in
  List.iter
    (fun (i : Telemetry.Trace.info) ->
      Option.iter
        (fun p ->
          let d = Option.value ~default:0.0 (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (d +. duration i))
        i.parent)
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (i : Telemetry.Trace.info) ->
      let self =
        duration i -. Option.value ~default:0.0 (Hashtbl.find_opt children i.id)
      in
      let d = Option.value ~default:0.0 (Hashtbl.find_opt by_name i.name) in
      Hashtbl.replace by_name i.name (d +. self))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

(* Self time of [layer]'s spans, from [self_times]. *)
let layer_self self layer =
  List.fold_left
    (fun acc (name, s) -> if layer_of name = Some layer then acc +. s else acc)
    0.0 self

(* ------------------------------------------------------------------ *)
(* Prometheus exposition parser                                        *)

type sample = { name : string; labels : (string * string) list; value : float }

(* Label block [{k="v",...}] starting at [s.[i] = '{']; returns the
   labels and the index just past the closing brace. *)
let parse_labels s i =
  let n = String.length s in
  let rec key acc j =
    if j >= n then failwith "unterminated label block"
    else if s.[j] = '}' then (List.rev acc, j + 1)
    else begin
      let j = if s.[j] = ',' then j + 1 else j in
      let eq =
        match String.index_from_opt s j '=' with
        | Some e -> e
        | None -> failwith "label without '='"
      in
      let k = String.sub s j (eq - j) in
      if eq + 1 >= n || s.[eq + 1] <> '"' then failwith "unquoted label value";
      let b = Buffer.create 16 in
      let rec value j =
        if j >= n then failwith "unterminated label value"
        else
          match s.[j] with
          | '"' -> j + 1
          | '\\' when j + 1 < n ->
            Buffer.add_char b (if s.[j + 1] = 'n' then '\n' else s.[j + 1]);
            value (j + 2)
          | c ->
            Buffer.add_char b c;
            value (j + 1)
      in
      let j = value (eq + 2) in
      key ((k, Buffer.contents b) :: acc) j
    end
  in
  key [] (i + 1)

let parse_value v =
  match v with
  | "+Inf" -> infinity
  | "-Inf" -> neg_infinity
  | "NaN" -> nan
  | v -> (
    match float_of_string_opt v with
    | Some f -> f
    | None -> failwith ("bad sample value " ^ v))

(* Every sample line of an exposition; comment and blank lines are
   skipped.  Raises [Failure] on a malformed line. *)
let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else begin
           let stop =
             match (String.index_opt line '{', String.index_opt line ' ') with
             | Some b, Some sp -> min b sp
             | Some b, None -> b
             | None, Some sp -> sp
             | None, None -> failwith ("sample without value: " ^ line)
           in
           let name = String.sub line 0 stop in
           let labels, rest =
             if line.[stop] = '{' then parse_labels line stop else ([], stop)
           in
           (* The value, then an optional timestamp. *)
           let v = String.sub line rest (String.length line - rest) in
           let v = List.hd (String.split_on_char ' ' (String.trim v)) in
           Some { name; labels; value = parse_value v }
         end)

(* Sum of every series named [name] (all label sets). *)
let total samples name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. s.value else acc)
    0.0 samples
