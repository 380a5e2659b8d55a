(* Start and reap one benchmark cluster: [Spec.n] node processes over
   loopback, each a fresh exec of this binary in node mode.  The parent
   binds every listener first and hands node [i] its socket as standard
   input, so peers can dial before a node has started and no port is
   ever rebound.  Each node marshals its {!Host.report} to its standard
   output, a pipe back to the parent.  Exec'ing (rather than forking the
   driver) keeps the driver's schedules out of the nodes' heaps, RSS and
   GC counters. *)

type t = {
  pids : int array;
  reports : Unix.file_descr array;
  ports : int array;
  t_fork_ns : int;
}

(* Every node process not yet reaped, so an aborted run can stop them. *)
let live : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let start ~workload ~seed ~traced =
  let listeners =
    Array.init Spec.n (fun _ ->
        let fd =
          Repro_transport.Live.bind
            (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
        in
        Unix.set_close_on_exec fd;
        fd)
  in
  let ports =
    Array.map
      (fun fd ->
        match Repro_transport.Live.listen_addr fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      listeners
  in
  let exe = Sys.executable_name in
  let ports_arg =
    String.concat "," (Array.to_list (Array.map string_of_int ports))
  in
  let t_fork_ns = Clock.now_ns () in
  let spawned =
    Array.mapi
      (fun i fd ->
        let r, w = Unix.pipe ~cloexec:true () in
        let args =
          [| exe; "node"; "--workload"; workload.Spec.name; "--self";
             string_of_int i; "--seed"; string_of_int seed; "--ports"; ports_arg;
             "--traced"; (if traced i then "1" else "0") |]
        in
        let pid = Unix.create_process exe args fd w Unix.stderr in
        live := pid :: !live;
        Unix.close w;
        Unix.close fd;
        (pid, r))
      listeners
  in
  { pids = Array.map fst spawned; reports = Array.map snd spawned; ports;
    t_fork_ns }

(* Read every report, then reap every process.  Returns the reports and
   the time the last process was reaped. *)
let finish t =
  let reports =
    Array.mapi
      (fun i fd ->
        let ic = Unix.in_channel_of_descr fd in
        let r =
          match (Marshal.from_channel ic : Host.report) with
          | r -> Ok r
          | exception _ -> Error (Printf.sprintf "node %d sent no report" i)
        in
        close_in_noerr ic;
        r)
      t.reports
  in
  let errors = ref [] in
  Array.iteri
    (fun i pid ->
      let _, st = Unix.waitpid [] pid in
      live := List.filter (( <> ) pid) !live;
      match st with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c ->
          errors := Printf.sprintf "node %d exited with %d" i c :: !errors
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          errors := Printf.sprintf "node %d killed by signal %d" i s :: !errors)
    t.pids;
  let t_reaped_ns = Clock.now_ns () in
  let reports =
    Array.map (function Ok r -> r | Error e -> failwith e) reports
  in
  (match !errors with e :: _ -> failwith e | [] -> ());
  (reports, t_reaped_ns)

(* Node mode: standard input is the listening socket, standard output
   the report pipe. *)
let node_main ~workload_name ~self ~seed ~ports ~traced =
  let report =
    Host.run ~self ~listen_fd:Unix.stdin ~ports ~workload_name ~seed ~traced
  in
  let oc = Unix.out_channel_of_descr Unix.stdout in
  Marshal.to_channel oc (report : Host.report) [];
  flush oc
