let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted_array l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Calc.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles l =
  let a = sorted_array l in
  let n = Array.length a in
  if n < 2 then invalid_arg "Calc.quartiles: fewer than two values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Calc.percentile: empty";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let backlog_slack = 4

let backlog_grows depths =
  let a = Array.of_list depths in
  let n = Array.length a in
  if n < 3 then false
  else
    let third = n / 3 in
    let med lo len =
      median (List.init len (fun i -> float_of_int a.(lo + i)))
    in
    let first = med 0 third and last = med (n - third) third in
    last > (2. *. first) +. float_of_int backlog_slack

type rung = {
  rate : float;
  p99_ms : float;
  requests : int;
  completions : int;
  depths : int list;
}

let meets_slo ~slo_ms r =
  r.p99_ms <= slo_ms && r.completions = r.requests
  && not (backlog_grows r.depths)

let capacity ~slo_ms rungs =
  List.fold_left
    (fun best r -> if meets_slo ~slo_ms r then Float.max best r.rate else best)
    0. rungs

let paper_err pairs =
  if pairs = [] then invalid_arg "Calc.paper_err: empty";
  let sum =
    List.fold_left
      (fun acc (sim, pub) ->
        if sim <= 0. || pub <= 0. then
          invalid_arg "Calc.paper_err: non-positive value";
        acc +. Float.abs (log (sim /. pub)))
      0. pairs
  in
  sum /. float_of_int (List.length pairs)

module Digest_acc = struct
  type t = Buffer.t

  let create () = Buffer.create 256

  let add_string t s =
    Buffer.add_string t (string_of_int (String.length s));
    Buffer.add_char t ':';
    Buffer.add_string t s

  let add_int t i = add_string t (string_of_int i)
  let add_float t f = add_string t (Int64.to_string (Int64.bits_of_float f))
  let hex t = Digest.to_hex (Digest.string (Buffer.contents t))
end
