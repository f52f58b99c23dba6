(** Routes as the simulation engine sees them.

    A route held by a node records the AS-level path {e excluding} the
    node's own AS (the first element is the announcing neighbour's AS,
    the last is the origin; an originated route has an empty path), plus
    the attributes the decision process compares and enough provenance
    to know where it came from.

    The engine keeps the two halves of a RIB-In route apart.  A slot of
    its route slab holds an {!import}: the attributes the route arrived
    with, one record shared by the slots an export reached with equal
    import results.  The provenance fields of {!t}
    ([from_node], [from_ip], [from_session], [learned],
    [learned_class]) are fixed by the session the slot belongs to, so
    they are read from the slot's position and filled in only when a
    reader asks for a whole route. *)

open Bgp

type learned = Originated | From_ebgp | From_ibgp

type import = {
  path : int array;
      (** AS path without the holder's own AS; [ [||] ] iff originated. *)
  lpref : int;  (** LOCAL_PREF after import policy. *)
  med : int;  (** MED after import policy. *)
  igp : int;  (** IGP cost to the egress router; 0 for eBGP/originated. *)
}
(** What a RIB-In slot holds: the route's attributes after import. *)

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

val originated_import : import
(** The attributes of a locally originated route: empty path, a
    LOCAL_PREF above any policy's, MED and IGP cost 0. *)

val originated : own_ip:int -> t

val no_route : t
(** Physical sentinel meaning "no route", used by the engine's best
    route arrays instead of [option] boxing.  Identity is [==] only
    ({!is_route}); never compare it structurally and never read its
    fields. *)

val is_route : t -> bool
(** [is_route r] is [r != no_route]. *)

val no_import : import
(** {!no_route}'s counterpart in the route slab: "no route in this
    slot".  Identity is [==] only: test a slot with [x != no_import]. *)

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
    the role of [None].  Tries physical equality first, then the same
    structural fields as {!same_advertisement}. *)

val pp : own_as:Asn.t -> Format.formatter -> t -> unit
