type t = int

let zero = 0
let max_value = 0xFFFF_FFFF

let of_octets a b c d =
  if a < 0 || a > 255 || b < 0 || b > 255 || c < 0 || c > 255 || d < 0 || d > 255
  then invalid_arg "Ipv4.of_octets";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets ip =
  ((ip lsr 24) land 0xFF, (ip lsr 16) land 0xFF, (ip lsr 8) land 0xFF, ip land 0xFF)

let of_string_opt s =
  let n = String.length s in
  (* Manual parse: avoids Scanf overhead and rejects junk like "1.2.3.4x". *)
  let rec octet i acc digits =
    if i >= n then (acc, i, digits)
    else
      match s.[i] with
      | '0' .. '9' when digits < 3 ->
        octet (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0')) (digits + 1)
      | _ -> (acc, i, digits)
  in
  let rec go i k acc =
    let v, j, digits = octet i 0 0 in
    if digits = 0 || v > 255 then None
    else if k = 3 then if j = n then Some ((acc lsl 8) lor v) else None
    else if j < n && s.[j] = '.' then go (j + 1) (k + 1) ((acc lsl 8) lor v)
    else None
  in
  go 0 0 0

let of_string s =
  match of_string_opt s with
  | Some ip -> ip
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string: %S" s)

(* Decimal digits of one octet (0..255), written without allocating. *)
let add_octet buf n =
  if n >= 100 then Buffer.add_char buf (Char.unsafe_chr (48 + (n / 100)));
  if n >= 10 then Buffer.add_char buf (Char.unsafe_chr (48 + (n / 10 mod 10)));
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_to_buffer buf ip =
  add_octet buf ((ip lsr 24) land 0xFF);
  Buffer.add_char buf '.';
  add_octet buf ((ip lsr 16) land 0xFF);
  Buffer.add_char buf '.';
  add_octet buf ((ip lsr 8) land 0xFF);
  Buffer.add_char buf '.';
  add_octet buf (ip land 0xFF)

let to_string ip =
  let buf = Buffer.create 15 in
  add_to_buffer buf ip;
  Buffer.contents buf

let pp fmt ip = Format.pp_print_string fmt (to_string ip)
let compare = Int.compare
let equal = Int.equal
let hash ip = ip * 0x9E3779B1 land max_int
let succ ip = (ip + 1) land max_value
let bit ip i = (ip lsr (31 - i)) land 1 = 1
let is_multicast ip = ip lsr 28 = 0xE

let is_private ip =
  ip lsr 24 = 10 || ip lsr 20 = 0xAC1 || ip lsr 16 = 0xC0A8
