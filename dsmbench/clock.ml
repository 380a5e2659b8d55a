(* Process clocks for the benchmark: a monotonic nanosecond clock for
   latencies and spans, the calling thread's CPU clock for the spans
   around [Live.step], and this process's peak resident set. *)

external now_ns : unit -> (int[@untagged])
  = "dsmb_now_ns_byte" "dsmb_now_ns"
[@@noalloc]

external thread_cpu_ns : unit -> (int[@untagged])
  = "dsmb_thread_cpu_ns_byte" "dsmb_thread_cpu_ns"
[@@noalloc]

(* Peak resident set of this process in KiB: VmHWM of /proc/self/status,
   or -1.  Not getrusage's ru_maxrss: across exec it keeps the peak of the
   image exec replaced, here the forked copy of the driver, whose heap
   grows with the phases it has run. *)
let maxrss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> -1
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) find
