(** Per-prefix case studies (paper Figure 3).

    The paper motivates quasi-routers with a concrete example: prefix
    193.170.32.0/20 at AS 5511, showing which routes each AS receives
    and which it propagates.  This module produces the same kind of
    report for any (model, prefix): the RIB-In diversity, the selected
    routes, and the implied lower bound on quasi-routers. *)

open Bgp

type as_view = {
  asn : Asn.t;
  received : Aspath.t list;
      (** distinct full paths present in the AS's RIB-Ins *)
  selected : Aspath.t list;  (** distinct full best paths *)
  quasi_routers : int;  (** quasi-routers the model currently uses *)
}

type t = {
  prefix : Prefix.t;
  origin : Asn.t option;
  views : as_view list;  (** only ASes that receive or select a route *)
}

val study : Asmodel.Qrmodel.t -> Prefix.t -> t
(** Simulate the prefix and collect every AS's view. *)

val most_diverse : t -> int -> as_view list
(** The [n] ASes receiving the most distinct routes — the paper's
    AS 3356 ("needs eight routers") candidates. *)

val pp : ?limit:int -> Format.formatter -> t -> unit
(** The [limit] (default 10) most diverse AS views. *)
