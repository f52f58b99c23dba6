(* Registry of named metrics.  Handles hold the atomics directly, so
   the hot paths never touch the registry (or its mutex) after
   registration; the mutex only guards registration and snapshotting. *)

type counter = int Atomic.t

type gauge = int Atomic.t

type histogram = {
  bounds : int array;  (* inclusive upper bounds, strictly increasing *)
  cells : int Atomic.t array;  (* length bounds + 1: last is overflow *)
  total : int Atomic.t;
  samples : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let mutex = Mutex.create ()

(* 1us .. ~17min in powers of four: wide enough for per-slot wall times
   of both micro-tests and full-scale refinements. *)
let default_duration_buckets =
  [ 1; 4; 16; 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576; 4194304;
    16777216; 67108864; 268435456; 1073741824 ]

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name make same =
  if String.length name = 0 then invalid_arg "Obs.Metrics: empty metric name";
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match same m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs.Metrics: %S is already registered as a %s" name
                   (kind_name m)))
      | None ->
          let v, m = make () in
          Hashtbl.add registry name m;
          v)

let counter name =
  register name
    (fun () ->
      let c = Atomic.make 0 in
      (c, C c))
    (function C c -> Some c | G _ | H _ -> None)

(* Counter updates from concurrent domains are a declared benign race:
   the cells are atomics, only the interleaving of counts is
   unordered.  Publishing the access keeps the allowlist honest — the
   race detector must see the race and suppress it by declaration,
   not by blindness. *)
let metrics_obj = "obs/metrics"

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Obs.Metrics.incr: negative increment";
  Probe.write ~obj:metrics_obj ~site:"metrics.incr";
  ignore (Atomic.fetch_and_add c by)

let counter_value = Atomic.get

let gauge name =
  register name
    (fun () ->
      let g = Atomic.make 0 in
      (g, G g))
    (function G g -> Some g | C _ | H _ -> None)

let set_gauge g v =
  Probe.write ~obj:metrics_obj ~site:"metrics.set-gauge";
  Atomic.set g v

let gauge_value = Atomic.get

let histogram ?(buckets = default_duration_buckets) name =
  let bounds = Array.of_list buckets in
  if Array.length bounds = 0 then
    invalid_arg "Obs.Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Obs.Metrics.histogram: buckets not strictly increasing")
    bounds;
  register name
    (fun () ->
      let h =
        {
          bounds;
          cells = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          total = Atomic.make 0;
          samples = Atomic.make 0;
        }
      in
      (h, H h))
    (function
      | H h -> if h.bounds = bounds then Some h else None
      | C _ | G _ -> None)

(* Index of the first bound [>= v] (the overflow cell past the last).
   Top-level, not a local closure over [v], so [observe] allocates
   nothing. *)
let rec cell bounds v i =
  if i >= Array.length bounds || v <= bounds.(i) then i
  else cell bounds v (i + 1)

let observe h v =
  Probe.write ~obj:metrics_obj ~site:"metrics.observe";
  let v = max 0 v in
  ignore (Atomic.fetch_and_add h.cells.(cell h.bounds v 0) 1);
  ignore (Atomic.fetch_and_add h.total v);
  ignore (Atomic.fetch_and_add h.samples 1)

let histogram_count h = Atomic.get h.samples

let histogram_sum h = Atomic.get h.total

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { buckets : (int * int) list; sum : int; count : int }

let value_of = function
  | C c -> Counter (Atomic.get c)
  | G g -> Gauge (Atomic.get g)
  | H h ->
      let buckets =
        List.init
          (Array.length h.cells)
          (fun i ->
            let bound =
              if i < Array.length h.bounds then h.bounds.(i) else max_int
            in
            (bound, Atomic.get h.cells.(i)))
      in
      Histogram
        { buckets; sum = Atomic.get h.total; count = Atomic.get h.samples }

let snapshot () =
  Mutex.protect mutex (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let value name =
  Mutex.protect mutex (fun () ->
      Option.map value_of (Hashtbl.find_opt registry name))

let find_counter name =
  match value name with Some (Counter v) -> v | _ -> 0

(* GC gauges, refreshed on demand (bench sections, report dumps) from
   [Gc.quick_stat] — cheap enough to call at batch granularity.  Word
   counts are clamped into the gauge's int domain (no-op on 64-bit). *)
let gc_minor_words_g = gauge "gc.minor_words"

let gc_promoted_words_g = gauge "gc.promoted_words"

let gc_major_words_g = gauge "gc.major_words"

let gc_minor_collections_g = gauge "gc.minor_collections"

let gc_major_collections_g = gauge "gc.major_collections"

let gc_compactions_g = gauge "gc.compactions"

let gc_heap_words_g = gauge "gc.heap_words"

let gc_top_heap_words_g = gauge "gc.top_heap_words"

let words w =
  if w >= float_of_int max_int then max_int else int_of_float w

let record_gc () =
  let s = Gc.quick_stat () in
  set_gauge gc_minor_words_g (words s.Gc.minor_words);
  set_gauge gc_promoted_words_g (words s.Gc.promoted_words);
  set_gauge gc_major_words_g (words s.Gc.major_words);
  set_gauge gc_minor_collections_g s.Gc.minor_collections;
  set_gauge gc_major_collections_g s.Gc.major_collections;
  set_gauge gc_compactions_g s.Gc.compactions;
  set_gauge gc_heap_words_g s.Gc.heap_words;
  set_gauge gc_top_heap_words_g s.Gc.top_heap_words

(* [Gc.minor_words] sees the current minor heap; [Gc.counters] is read
   outside its window so that the tuple it allocates is not counted. *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ( r,
    int_of_float
      (minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)) )

let pp_snapshot ppf items =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.fprintf ppf "@,";
      match v with
      | Counter n -> Format.fprintf ppf "%-34s %d" name n
      | Gauge n -> Format.fprintf ppf "%-34s %d (gauge)" name n
      | Histogram { sum; count; _ } ->
          Format.fprintf ppf "%-34s count %d, sum %d, mean %.1f" name count sum
            (if count = 0 then 0.0 else float_of_int sum /. float_of_int count))
    items;
  Format.fprintf ppf "@]"
