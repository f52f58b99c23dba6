(** Routes as the simulation engine sees them.

    A route held by a node records the AS-level path {e excluding} the
    node's own AS (the first element is the announcing neighbour's AS,
    the last is the origin; an originated route has an empty path), plus
    the attributes the decision process compares and enough provenance
    to know where it came from. *)

open Bgp

type learned = Originated | From_ebgp | From_ibgp

type t = {
  path : int array;
      (** AS path without the holder's own AS; [ [||] ] iff originated. *)
  lpref : int;  (** LOCAL_PREF after import policy. *)
  med : int;  (** MED after import policy; always compared. *)
  igp : int;  (** IGP cost to the egress router; 0 for eBGP/originated. *)
  from_node : int;  (** Announcing node id; [-1] iff originated. *)
  from_ip : int;
      (** Numeric address of the announcing router — the final
          tie-break value ("lowest neighbour IP"). *)
  from_session : int;
      (** Session index at the holder over which the route arrived;
          [-1] iff originated. *)
  learned : learned;
  learned_class : int;
      (** Relationship class of the announcing session ([-1] iff
          originated); input to relationship-based export rules. *)
}

val originated : own_ip:int -> t

val no_route : t
(** Physical sentinel meaning "no route in this slot", used by the
    engine's flat route slab instead of [option] boxing.  Identity is
    [==] only ({!is_route}); never compare it structurally and never
    read its fields. *)

val is_route : t -> bool
(** [is_route r] is [r != no_route]. *)

val full_path : own_as:Asn.t -> t -> int array
(** The complete AS-level path as an observation point peering with the
    holder would see it: own AS prepended. *)

val same_path : int array -> int array -> bool
(** Path equality, physical first: the engine's eBGP prepends are
    memoized ({!Intern.prepend}), so identical paths within a domain
    and net usually share one array; structural equality remains the
    fallback (and the definition). *)

val same_advertisement : t option -> t option -> bool
(** Do two RIB-In slots hold the same announcement (same sender, same
    path, same attributes)?  Used to suppress redundant propagation. *)

val same_route : t -> t -> bool
(** {!same_advertisement} over sentinel-boxed values: {!no_route} plays
    the role of [None].  Tries physical equality first (a slot that
    still holds the record the best route was taken from), then the
    same structural fields as {!same_advertisement}. *)

val pp : own_as:Asn.t -> Format.formatter -> t -> unit
