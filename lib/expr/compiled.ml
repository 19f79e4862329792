(* A fold over every node: unlike [Hashtbl.hash] (which stops after a
   bounded number of meaningful words, so deep bases with a shared prefix
   all collide) this visits the whole tree.  Weights hash by their IEEE
   bits so any weight mutation changes the key. *)

let combine h k = (h * 0x01000193) + k (* FNV-ish multiply-and-add, wraps *)
let combine_float h f = combine h (Int64.to_int (Int64.bits_of_float f))

let rec hash_basis_acc h (b : Expr.basis) =
  let h =
    match b.Expr.vc with
    | None -> combine h 0x11
    | Some exponents -> Array.fold_left combine (combine h 0x12) exponents
  in
  combine (List.fold_left hash_factor_acc (combine h 0x13) b.Expr.factors) 0x14

and hash_factor_acc h = function
  | Expr.Unary (op, ws) -> hash_wsum_acc (combine (combine h 0x21) (Hashtbl.hash op)) ws
  | Expr.Binary (op, a1, a2) ->
      hash_arg_acc (hash_arg_acc (combine (combine h 0x22) (Hashtbl.hash op)) a1) a2
  | Expr.Lte { test; threshold; less; otherwise } ->
      hash_arg_acc
        (hash_arg_acc (hash_arg_acc (hash_wsum_acc (combine h 0x23) test) threshold) less)
        otherwise

and hash_arg_acc h = function
  | Expr.Const w -> combine_float (combine h 0x31) w
  | Expr.Sum ws -> hash_wsum_acc (combine h 0x32) ws

and hash_wsum_acc h (ws : Expr.wsum) =
  let h = combine_float (combine h 0x41) ws.Expr.bias in
  combine
    (List.fold_left (fun h (w, b) -> hash_basis_acc (combine_float h w) b) h ws.Expr.terms)
    0x42

let hash_basis b = hash_basis_acc 0x1505 b land max_int

module Key = struct
  type t = Expr.basis

  let equal = Expr.equal_basis
  let hash = hash_basis
end

module Tbl = Hashtbl.Make (Key)
