open Bgp
module Net = Simulator.Net

let to_lines (m : Qrmodel.t) =
  let net = m.Qrmodel.net in
  let buf = ref [ "asmodel 1" ] in
  let add line = buf := line :: !buf in
  let n = Net.node_count net in
  for id = 0 to n - 1 do
    add
      (Printf.sprintf "node %d %d %s" id (Net.asn_of net id)
         (Ipv4.to_string (Net.ip_of net id)))
  done;
  (* Each session once, from the lower node id. *)
  for id = 0 to n - 1 do
    List.iter
      (fun (_s, peer) -> if id < peer then add (Printf.sprintf "edge %d %d" id peer))
      (Net.sessions_of net id)
  done;
  (* Policy lines in ascending (node, peer, prefix) order, so a model
     file is canonical: saving a loaded model reproduces it byte for
     byte, whatever order the rules were placed in. *)
  let sorted =
    List.sort (fun (n1, m1, p1, _) (n2, m2, p2, _) ->
        match compare (n1, m1) (n2, m2) with
        | 0 -> Prefix.compare p1 p2
        | c -> c)
  in
  Net.fold_export_denies net
    (fun node s p acc -> (node, Net.session_peer net node s, p, 0) :: acc)
    []
  |> sorted
  |> List.iter (fun (node, peer, p, _) ->
         add (Printf.sprintf "deny %d %d %s" node peer (Prefix.to_string p)));
  Net.fold_import_meds net
    (fun node s p v acc -> (node, Net.session_peer net node s, p, v) :: acc)
    []
  |> sorted
  |> List.iter (fun (node, peer, p, v) ->
         add
           (Printf.sprintf "med %d %d %s %d" node peer (Prefix.to_string p) v));
  List.iter
    (fun (p, asn) -> add (Printf.sprintf "prefix %s %d" (Prefix.to_string p) asn))
    m.Qrmodel.prefixes;
  List.rev !buf

let save path m =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        (to_lines m))

type builder = {
  mutable nodes : (int * int * Ipv4.t) list;  (* id, asn, ip; reverse order *)
  mutable edges : (int * int) list;
  mutable denies : (int * int * Prefix.t) list;
  mutable meds : (int * int * Prefix.t * int) list;
  mutable prefixes : (Prefix.t * int) list;
}

let parse_line b lineno line =
  let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok ()
  else
    let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
    let int_of name s =
      match int_of_string_opt s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "line %d: bad %s %S" lineno name s)
    in
    let ( let* ) = Result.bind in
    match fields with
    | [ "asmodel"; "1" ] -> Ok ()
    | [ "node"; id; asn; ip ] ->
        let* id = int_of "id" id in
        let* asn = int_of "asn" asn in
        let* ip = Option.to_result ~none:("bad ip " ^ ip) (Ipv4.of_string ip) in
        b.nodes <- (id, asn, ip) :: b.nodes;
        Ok ()
    | [ "edge"; a; b' ] ->
        let* a = int_of "node" a in
        let* b' = int_of "node" b' in
        b.edges <- (a, b') :: b.edges;
        Ok ()
    | [ "deny"; from_n; to_n; p ] ->
        let* from_n = int_of "node" from_n in
        let* to_n = int_of "node" to_n in
        let* p =
          Option.to_result ~none:("bad prefix " ^ p) (Prefix.of_string p)
        in
        b.denies <- (from_n, to_n, p) :: b.denies;
        Ok ()
    | [ "med"; at_n; from_n; p; v ] ->
        let* at_n = int_of "node" at_n in
        let* from_n = int_of "node" from_n in
        let* p =
          Option.to_result ~none:("bad prefix " ^ p) (Prefix.of_string p)
        in
        let* v = int_of "value" v in
        b.meds <- (at_n, from_n, p, v) :: b.meds;
        Ok ()
    | [ "prefix"; p; asn ] ->
        let* p =
          Option.to_result ~none:("bad prefix " ^ p) (Prefix.of_string p)
        in
        let* asn = int_of "asn" asn in
        b.prefixes <- (p, asn) :: b.prefixes;
        Ok ()
    | kw :: _ -> fail (Printf.sprintf "unknown keyword %S" kw)
    | [] -> Ok ()

let of_lines lines =
  let b = { nodes = []; edges = []; denies = []; meds = []; prefixes = [] } in
  let rec parse_all lineno = function
    | [] -> Ok ()
    | l :: rest -> (
        match parse_line b lineno l with
        | Ok () -> parse_all (lineno + 1) rest
        | Error _ as e -> e)
  in
  Result.bind (parse_all 1 lines) (fun () ->
      let nodes = List.rev b.nodes in
      let net = Net.create () in
      let graph = ref Topology.Asgraph.empty in
      let ok = ref (Ok ()) in
      List.iteri
        (fun expect (id, asn, ip) ->
          if id <> expect && !ok = Ok () then
            ok := Error (Printf.sprintf "node ids not dense at %d" id)
          else begin
            ignore (Net.add_node net ~asn ~ip);
            graph := Topology.Asgraph.add_node !graph asn
          end)
        nodes;
      Result.bind !ok (fun () ->
          let n = Net.node_count net in
          let check_node id =
            if id < 0 || id >= n then
              Error (Printf.sprintf "node id %d out of range" id)
            else Ok ()
          in
          let ( let* ) = Result.bind in
          let rec connect_all = function
            | [] -> Ok ()
            | (a, b') :: rest ->
                let* () = check_node a in
                let* () = check_node b' in
                ignore (Net.connect net a b');
                graph :=
                  Topology.Asgraph.add_edge !graph (Net.asn_of net a)
                    (Net.asn_of net b');
                connect_all rest
          in
          let* () = connect_all (List.rev b.edges) in
          let session_between a b' =
            match Net.find_session net a b' with
            | Some s -> Ok s
            | None -> Error (Printf.sprintf "no session %d-%d" a b')
          in
          let rec apply_denies = function
            | [] -> Ok ()
            | (from_n, to_n, p) :: rest ->
                let* () = check_node from_n in
                let* () = check_node to_n in
                let* s = session_between from_n to_n in
                Net.deny_export net from_n s p;
                apply_denies rest
          in
          let* () = apply_denies (List.rev b.denies) in
          let rec apply_meds = function
            | [] -> Ok ()
            | (at_n, from_n, p, v) :: rest ->
                let* () = check_node at_n in
                let* () = check_node from_n in
                let* s = session_between at_n from_n in
                Net.set_import_med net at_n s p v;
                apply_meds rest
          in
          let* () = apply_meds (List.rev b.meds) in
          Ok
            {
              Qrmodel.net;
              graph = !graph;
              prefixes = List.rev b.prefixes;
            }))

let load path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  of_lines lines
