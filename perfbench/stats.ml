(* Order statistics for the measured samples. *)

(* Linear interpolation between closest ranks of a sorted array, [q] in
   [0, 1]. *)
let quantile_sorted q a =
  let n = Float.Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. float_of_int i in
    let at = Float.Array.get a in
    if i + 1 >= n then at (n - 1) else at i +. (frac *. (at (i + 1) -. at i))

let quantile q xs =
  let a = Float.Array.of_list xs in
  Float.Array.sort compare a;
  quantile_sorted q a

let median xs = quantile 0.5 xs
