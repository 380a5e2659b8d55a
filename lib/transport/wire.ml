type kind =
  | Data
  | Hello
  | Done
  | Creq
  | Cresp
  | Join
  | Leave
  | Transfer
  | Epoch
  | Ping
  | Pong
  | Probe
  | Report
  | Halt

type frame = {
  kind : kind;
  src : int;
  dst : int;
  epoch : int;
  control_bytes : int;
  payload_bytes : int;
  body : string;
}

let magic = 0xD5

(* header bytes counted by the length field (magic..payload_bytes) *)
let header_bytes = 16

(* where a frame body starts inside a buffer holding the whole frame,
   length prefix included *)
let body_offset = 4 + header_bytes

let max_frame_bytes = 1 lsl 24

let kind_byte = function
  | Data -> 0
  | Hello -> 1
  | Done -> 2
  | Creq -> 3
  | Cresp -> 4
  | Join -> 5
  | Leave -> 6
  | Transfer -> 7
  | Epoch -> 8
  | Ping -> 9
  | Pong -> 10
  | Probe -> 11
  | Report -> 12
  | Halt -> 13

let kind_of_byte = function
  | 0 -> Some Data
  | 1 -> Some Hello
  | 2 -> Some Done
  | 3 -> Some Creq
  | 4 -> Some Cresp
  | 5 -> Some Join
  | 6 -> Some Leave
  | 7 -> Some Transfer
  | 8 -> Some Epoch
  | 9 -> Some Ping
  | 10 -> Some Pong
  | 11 -> Some Probe
  | 12 -> Some Report
  | 13 -> Some Halt
  | _ -> None

let is_data buf = Bytes.get_uint8 buf 5 = kind_byte Data

(* Write the length prefix and header into [buf.(0..body_offset-1)]; the
   caller emits the body at [body_offset] (possibly before this call —
   the regions are disjoint).  This is the zero-copy encode path: the
   same buffer goes straight to the socket, so no per-frame allocation
   happens once the buffer itself comes from a pool. *)
let set_header ?(epoch = 0) buf ~kind ~src ~dst ~control_bytes ~payload_bytes
    ~body_len =
  if src < 0 || src > 0xFFFF then invalid_arg "Wire.set_header: bad src";
  if dst < 0 || dst > 0xFFFF then invalid_arg "Wire.set_header: bad dst";
  if epoch < 0 || epoch > 0xFFFF then invalid_arg "Wire.set_header: bad epoch";
  if control_bytes < 0 || control_bytes > 0x7FFFFFFF then
    invalid_arg "Wire.set_header: bad control byte count";
  if payload_bytes < 0 || payload_bytes > 0x7FFFFFFF then
    invalid_arg "Wire.set_header: bad payload byte count";
  let len = header_bytes + body_len in
  if body_len < 0 || len > max_frame_bytes then
    invalid_arg "Wire.set_header: frame too large";
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.set_uint8 buf 4 magic;
  Bytes.set_uint8 buf 5 (kind_byte kind);
  Bytes.set_uint16_be buf 6 src;
  Bytes.set_uint16_be buf 8 dst;
  Bytes.set_uint16_be buf 10 epoch;
  Bytes.set_int32_be buf 12 (Int32.of_int control_bytes);
  Bytes.set_int32_be buf 16 (Int32.of_int payload_bytes)

let encode frame =
  let body_len = String.length frame.body in
  let buf = Bytes.create (body_offset + body_len) in
  set_header buf ~kind:frame.kind ~src:frame.src ~dst:frame.dst
    ~epoch:frame.epoch ~control_bytes:frame.control_bytes
    ~payload_bytes:frame.payload_bytes ~body_len;
  Bytes.blit_string frame.body 0 buf body_offset body_len;
  buf

(* --- buffer pool ----------------------------------------------------------- *)

(* Size-classed freelists of frame buffers.  [acquire] rounds the request
   up to a class and reuses a recycled buffer when one is free, so the
   steady-state encode→flush cycle allocates nothing; [release] returns a
   buffer to its class (dropping it when the class is full or the buffer
   came from the oversize fallback).  Buffers larger than the top class
   are rare (frames are bounded by max_frame_bytes but typically tiny)
   and are simply allocated fresh. *)
module Pool = struct
  let classes = [| 256; 1024; 4096; 16384; 65536 |]

  let class_cap = 64 (* buffers kept per class *)

  type t = { free : Bytes.t list array; count : int array }

  let create () =
    {
      free = Array.make (Array.length classes) [];
      count = Array.make (Array.length classes) 0;
    }

  (* -1 for oversize, not an option: acquire/release run per message on
     the hot path and must not box the class index *)
  let class_of n =
    let rec go i =
      if i >= Array.length classes then -1
      else if n <= classes.(i) then i
      else go (i + 1)
    in
    go 0

  let acquire t n =
    match class_of n with
    | -1 -> Bytes.create n
    | i -> (
        match t.free.(i) with
        | b :: rest ->
            t.free.(i) <- rest;
            t.count.(i) <- t.count.(i) - 1;
            b
        | [] -> Bytes.create classes.(i))

  let release t b =
    let len = Bytes.length b in
    let i = class_of len in
    if i >= 0 && classes.(i) = len && t.count.(i) < class_cap then begin
      t.free.(i) <- b :: t.free.(i);
      t.count.(i) <- t.count.(i) + 1
    end
end

(* --- decoding --------------------------------------------------------------- *)

(* A decoded frame whose body still lives in the decoder's buffer: valid
   until the next [feed] (which may move or replace the buffer).  The
   zero-copy receive path parses message bodies straight out of it. *)
type view = {
  v_kind : kind;
  v_src : int;
  v_dst : int;
  v_epoch : int;
  v_control_bytes : int;
  v_payload_bytes : int;
  v_buf : Bytes.t;
  v_off : int;  (* body start *)
  v_len : int;  (* body length *)
}

let view_body v = Bytes.sub_string v.v_buf v.v_off v.v_len

(* Decode one frame's header starting at [off]; the length prefix has
   already been read and validated to fit in the buffer. *)
let view_at buf off len =
  if Bytes.get_uint8 buf (off + 4) <> magic then Error "bad magic"
  else
    match kind_of_byte (Bytes.get_uint8 buf (off + 5)) with
    | None -> Error "unknown frame kind"
    | Some kind ->
        let control_bytes = Int32.to_int (Bytes.get_int32_be buf (off + 12)) in
        let payload_bytes = Int32.to_int (Bytes.get_int32_be buf (off + 16)) in
        if control_bytes < 0 || payload_bytes < 0 then
          Error "negative byte count"
        else
          Ok
            {
              v_kind = kind;
              v_src = Bytes.get_uint16_be buf (off + 6);
              v_dst = Bytes.get_uint16_be buf (off + 8);
              v_epoch = Bytes.get_uint16_be buf (off + 10);
              v_control_bytes = control_bytes;
              v_payload_bytes = payload_bytes;
              v_buf = buf;
              v_off = off + body_offset;
              v_len = len - header_bytes;
            }

let frame_of_view v =
  {
    kind = v.v_kind;
    src = v.v_src;
    dst = v.v_dst;
    epoch = v.v_epoch;
    control_bytes = v.v_control_bytes;
    payload_bytes = v.v_payload_bytes;
    body = view_body v;
  }

let check_length len =
  if len < header_bytes then Error "undersized frame"
  else if len > max_frame_bytes then Error "oversized frame"
  else Ok ()

let of_bytes buf =
  let total = Bytes.length buf in
  if total < 4 then Error "truncated frame"
  else
    let len = Int32.to_int (Bytes.get_int32_be buf 0) in
    match check_length len with
    | Error _ as e -> e
    | Ok () ->
        if total < 4 + len then Error "truncated frame"
        else if total > 4 + len then Error "trailing garbage"
        else Result.map frame_of_view (view_at buf 0 len)

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable fill : int;  (* bytes valid in [buf] *)
  mutable poisoned : string option;
  mutable quiet : int;  (* consecutive small feeds while oversized *)
}

let base_capacity = 4096

(* A buffer grown for one large frame shrinks back once [shrink_after]
   consecutive feeds would each have fit in the base capacity — sized
   traffic pays for its peak only while the peak lasts. *)
let shrink_after = 32

let decoder () =
  {
    buf = Bytes.create base_capacity;
    start = 0;
    fill = 0;
    poisoned = None;
    quiet = 0;
  }

let pending d = d.fill - d.start

let capacity d = Bytes.length d.buf

let feed d src len =
  if len < 0 || len > Bytes.length src then invalid_arg "Wire.feed";
  if d.poisoned = None && len > 0 then begin
    (* shrink-after-idle: a buffer inflated by a past large frame returns
       to base size once enough consecutive feeds stay small *)
    if Bytes.length d.buf > base_capacity then begin
      if pending d + len <= base_capacity then begin
        d.quiet <- d.quiet + 1;
        if d.quiet >= shrink_after then begin
          let small = Bytes.create base_capacity in
          let live = pending d in
          if live > 0 then Bytes.blit d.buf d.start small 0 live;
          d.buf <- small;
          d.start <- 0;
          d.fill <- live;
          d.quiet <- 0
        end
      end
      else d.quiet <- 0
    end;
    (* compact, then grow if the tail still cannot take [len] bytes *)
    if d.fill + len > Bytes.length d.buf then begin
      let live = pending d in
      if live > 0 then Bytes.blit d.buf d.start d.buf 0 live;
      d.start <- 0;
      d.fill <- live;
      if d.fill + len > Bytes.length d.buf then begin
        let cap = ref (Bytes.length d.buf) in
        while d.fill + len > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit d.buf 0 bigger 0 d.fill;
        d.buf <- bigger
      end
    end;
    Bytes.blit src 0 d.buf d.fill len;
    d.fill <- d.fill + len
  end

let next_view d =
  match d.poisoned with
  | Some msg -> Error msg
  | None ->
      if pending d < 4 then Ok None
      else
        let len = Int32.to_int (Bytes.get_int32_be d.buf d.start) in
        (match check_length len with
        | Error msg ->
            d.poisoned <- Some msg;
            Error msg
        | Ok () ->
            if pending d < 4 + len then Ok None
            else
              let result = view_at d.buf d.start len in
              (match result with
              | Ok view ->
                  d.start <- d.start + 4 + len;
                  if d.start = d.fill then begin
                    d.start <- 0;
                    d.fill <- 0
                  end;
                  Ok (Some view)
              | Error msg ->
                  d.poisoned <- Some msg;
                  Error msg))

let next d =
  match next_view d with
  | Ok (Some v) -> Ok (Some (frame_of_view v))
  | Ok None -> Ok None
  | Error _ as e -> e
