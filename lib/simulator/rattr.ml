open Bgp

type learned = Originated | From_ebgp | From_ibgp

type import = { path : int array; lpref : int; med : int; igp : int }

type t = {
  path : int array;
  lpref : int;
  med : int;
  igp : int;
  from_node : int;
  from_ip : int;
  from_session : int;
  learned : learned;
  learned_class : int;
}

(* LOCAL_PREF given to locally-originated routes; higher than any
   policy-assigned preference so origination always wins locally. *)
let originated_lpref = 1_000_000

let originated_import : import =
  { path = [||]; lpref = originated_lpref; med = 0; igp = 0 }

let originated ~own_ip =
  {
    path = [||];
    lpref = originated_lpref;
    med = 0;
    igp = 0;
    from_node = -1;
    from_ip = own_ip;
    from_session = -1;
    learned = Originated;
    learned_class = -1;
  }

(* Physical sentinel for flat route slabs: "no route in this slot"
   without an option box.  Identified by [==] only — its field values
   are deliberately absurd so an accidental structural use is visible,
   but nothing may ever compare it structurally. *)
let no_route =
  {
    path = [| -1 |];
    lpref = min_int;
    med = min_int;
    igp = min_int;
    from_node = min_int;
    from_ip = min_int;
    from_session = min_int;
    learned = Originated;
    learned_class = min_int;
  }

let is_route r = r != no_route

(* The slab's sentinel, as absurd as [no_route]. *)
let no_import : import =
  { path = [| -1 |]; lpref = min_int; med = min_int; igp = min_int }

let full_path ~own_as r =
  let n = Array.length r.path in
  let out = Array.make (n + 1) own_as in
  Array.blit r.path 0 out 1 n;
  out

(* Paths flowing through the engine come from the prepend memo
   (Intern.prepend), so the physical check settles the common case
   without walking the array; the element loop keeps the comparison
   correct for arrays from other domains or nets, or built by callers
   directly, without a [caml_equal] call. *)
let same_path (a : int array) (b : int array) =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
    incr i
  done;
  !i = n

let same_advertisement a b =
  match (a, b) with
  | None, None -> true
  | Some _, None | None, Some _ -> false
  | Some a, Some b ->
      a.from_node = b.from_node
      && same_path a.path b.path
      && a.lpref = b.lpref
      && a.med = b.med
      && a.igp = b.igp

(* Sentinel-aware variant of [same_advertisement] for flat slabs:
   [no_route] plays the role of [None].  The physical check settles
   both the sentinel cases and interned routes re-derived in the same
   domain; the structural fallback (same fields as
   [same_advertisement]) covers routes from other domains. *)
let same_route a b =
  a == b
  || (is_route a && is_route b
     && a.from_node = b.from_node
     && same_path a.path b.path
     && a.lpref = b.lpref
     && a.med = b.med
     && a.igp = b.igp)

let pp ~own_as ppf r =
  let path = full_path ~own_as r in
  Format.fprintf ppf "%a lpref=%d med=%d igp=%d from=%d" Aspath.pp
    (Aspath.of_array path) r.lpref r.med r.igp r.from_node
