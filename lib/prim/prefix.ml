type t = { network : Ipv4.t; len : int }

let mask_of_len len = if len = 0 then 0 else 0xFFFF_FFFF lxor ((1 lsl (32 - len)) - 1)

let make ip len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make";
  { network = ip land mask_of_len len; len }

let host ip = { network = ip; len = 32 }

let of_string_opt s =
  match String.index_opt s '/' with
  | None -> Option.map host (Ipv4.of_string_opt s)
  | Some i -> (
    match
      ( Ipv4.of_string_opt (String.sub s 0 i),
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
    with
    | Some ip, Some len when len >= 0 && len <= 32 -> Some (make ip len)
    | _ -> None)

let of_string s =
  match of_string_opt s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string: %S" s)

let to_string p =
  let buf = Buffer.create 18 in
  Ipv4.add_to_buffer buf p.network;
  Buffer.add_char buf '/';
  Buffer.add_string buf (string_of_int p.len);
  Buffer.contents buf

let pp fmt p = Format.pp_print_string fmt (to_string p)

let compare a b =
  let c = Int.compare a.network b.network in
  if c <> 0 then c else Int.compare a.len b.len

let equal a b = a.network = b.network && a.len = b.len
let hash p = ((p.network * 31) + p.len) * 0x9E3779B1 land max_int
let network p = p.network
let length p = p.len
let mask p = mask_of_len p.len
let broadcast p = p.network lor (0xFFFF_FFFF lxor mask_of_len p.len)
let contains p ip = ip land mask_of_len p.len = p.network
let contains_prefix p q = q.len >= p.len && contains p q.network
let first_host p = if p.len <= 30 then p.network + 1 else p.network

let split p =
  if p.len >= 32 then invalid_arg "Prefix.split";
  let len = p.len + 1 in
  ({ network = p.network; len }, { network = p.network lor (1 lsl (32 - len)); len })

let everything = { network = 0; len = 0 }
