type report = {
  inc : int;
  quiet : bool;
  passive : bool;
  worked : bool;
  sent : int;
  recv : int;
}

type tag = { detector : int; wave : int }

let balanced reports =
  let sent = Array.fold_left (fun a r -> a + r.sent) 0 reports in
  let recv = Array.fold_left (fun a r -> a + r.recv) 0 reports in
  sent = recv

(* Mattern's four-counter test, in its stronger two-identical-waves form:
   if nothing changed between two waves that each found every node
   passive, and every frame counted as sent was counted as received, no
   frame was in flight when the second wave started and no node could
   have been woken since. *)
let decide ~prev ~cur =
  Array.length cur > 0
  && Array.length prev = Array.length cur
  && Array.for_all (fun r -> r.passive) cur
  && Array.for_all2 ( = ) prev cur
  && balanced cur
  && Array.exists (fun r -> r.worked) cur

(* --- bodies ----------------------------------------------------------------- *)

let tag_len = 8

let report_len = tag_len + 4 + 1 + 8 + 8

let emit_tag buf { detector; wave } =
  let off = Codec.put_i32 buf 0 detector in
  Codec.put_i32 buf off wave

let parse_tag buf limit ~min_wave =
  let detector, pos = Codec.get_i32 buf 0 limit in
  let wave, pos = Codec.get_i32 buf pos limit in
  if detector < 0 then raise (Codec.Bad "negative detector incarnation");
  if wave < min_wave then raise (Codec.Bad "bad wave number");
  ({ detector; wave }, pos)

let strict name len s f =
  let buf = Bytes.unsafe_of_string s in
  if String.length s <> len then
    Error (Printf.sprintf "%s body: %d bytes, want %d" name (String.length s) len)
  else match f buf with v -> Ok v | exception Codec.Bad e -> Error (name ^ " body: " ^ e)

let encode_probe tag =
  let buf = Bytes.create tag_len in
  ignore (emit_tag buf tag : int);
  Bytes.unsafe_to_string buf

let decode_probe s =
  strict "probe" tag_len s (fun buf -> fst (parse_tag buf tag_len ~min_wave:1))

let encode_halt = encode_probe

let decode_halt s =
  strict "halt" tag_len s (fun buf -> fst (parse_tag buf tag_len ~min_wave:1))

let encode_report tag r =
  let buf = Bytes.create report_len in
  let off = emit_tag buf tag in
  let off = Codec.put_i32 buf off r.inc in
  let flags =
    (if r.quiet then 1 else 0)
    lor (if r.passive then 2 else 0)
    lor if r.worked then 4 else 0
  in
  let off = Codec.put_u8 buf off flags in
  let off = Codec.put_i64 buf off r.sent in
  ignore (Codec.put_i64 buf off r.recv : int);
  Bytes.unsafe_to_string buf

let decode_report s =
  strict "report" report_len s (fun buf ->
      let limit = report_len in
      let tag, pos = parse_tag buf limit ~min_wave:0 in
      let inc, pos = Codec.get_i32 buf pos limit in
      let flags, pos = Codec.get_u8 buf pos limit in
      let sent, pos = Codec.get_i64 buf pos limit in
      let recv, _ = Codec.get_i64 buf pos limit in
      if inc < 0 then raise (Codec.Bad "negative incarnation");
      if flags land lnot 7 <> 0 then raise (Codec.Bad "unknown flag bits");
      let quiet = flags land 1 <> 0 and passive = flags land 2 <> 0 in
      if passive && not quiet then raise (Codec.Bad "passive but not quiet");
      if sent < 0 || recv < 0 then raise (Codec.Bad "negative frame count");
      (tag, { inc; quiet; passive; worked = flags land 4 <> 0; sent; recv }))
