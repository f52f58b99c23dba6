exception Injected of int

let () =
  Printexc.register_printer (function
    | Injected i -> Some (Printf.sprintf "Faultinject.Injected(task %d)" i)
    | _ -> None)

(* Streams keep the three decision kinds independent: the same seed and
   rate must not make every thrown task also a killed task. *)
let stream_throw = 0

let stream_kill = 1

let stream_shrink = 2

(* Deterministic in (seed, stream, key) only — no ambient RNG state, so
   a faulted run is reproducible regardless of scheduling, job count or
   call order. *)
let chosen (t : Runtime.Fault.t) ~stream ~rate key =
  let st = Random.State.make [| t.seed; stream; key |] in
  Random.State.float st 1.0 < rate

let wrap_tasks ~n f =
  match Runtime.faults () with
  | None -> fun _ x -> f x
  | Some t ->
      let thrown = Array.make (max n 1) false in
      fun i x ->
        if
          t.scope = Runtime.Fault.Full
          && chosen t ~stream:stream_kill ~rate:(t.rate /. 4.0) i
        then raise (Injected i)
        else if
          chosen t ~stream:stream_throw ~rate:t.rate i && not thrown.(i)
        then begin
          thrown.(i) <- true;
          raise (Injected i)
        end
        else f x

let shrink_budget ~key budget =
  match Runtime.faults () with
  | Some ({ scope = Full; _ } as t)
    when chosen t ~stream:stream_shrink ~rate:t.rate key ->
      1
  | Some _ | None -> budget
