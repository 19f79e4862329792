(* Cross-tree CSE over sets of bases, evaluated with tiled kernels.

   Lowering follows Expr.eval_basis one fold step per DAG node, so every
   node value equals the interpreter's intermediate value bit for bit:

     basis      ->  VC (or CONST 1)  then one MUL per factor
     wsum       ->  CONST bias  then one FMA per term
     Unary      ->  UNARY wsum
     Binary     ->  BINARY arg1 arg2
     Lte        ->  LTE test threshold less otherwise  (eager, per-sample)
     Const arg  ->  CONST w

   Products and weighted sums are consed one fold step at a time, so two
   bases sharing a factor-list prefix (the common case under set
   crossover) share the whole prefix chain, not just the leaves.

   The DAG is executed as a slot-allocated kernel tape: a liveness pass
   assigns each node a scratch slot, releasing a slot at its value's last
   read so later nodes reuse it (every kernel reads its operands at
   sample j before writing slot j, so a destination may alias an
   operand).  Evaluation blocks the sample dimension into tiles sized so
   all slots' tiles together fit an L1-ish budget; within a tile each
   kernel is one tight unsafe-access loop. *)

type node =
  | Const of float
  | Vc of { vars : int array; exps : int array }
  | Unary of Op.unary * int
  | Binary of Op.binary * int * int
  | Lte of { test : int; threshold : int; less : int; otherwise : int }
  | Mul of int * int
  | Fma of { acc : int; w : float; term : int }

(* --- hash-consing ------------------------------------------------------- *)

(* Same identity as Compiled.Key (the basis-level structural hash) lifted
   to DAG nodes: children by id, weights by IEEE bits (so -0. and 0. are
   distinct columns and NaN weights are self-equal), same FNV-ish
   combine. *)

let combine h k = (h * 0x01000193) + k
let fbits f = Int64.to_int (Int64.bits_of_float f)

module Node_key = struct
  type t = node

  let equal a b =
    match (a, b) with
    | Const x, Const y -> Int64.bits_of_float x = Int64.bits_of_float y
    | Vc { vars = v1; exps = e1 }, Vc { vars = v2; exps = e2 } -> v1 = v2 && e1 = e2
    | Unary (o1, x1), Unary (o2, x2) -> o1 = o2 && x1 = x2
    | Binary (o1, x1, y1), Binary (o2, x2, y2) -> o1 = o2 && x1 = x2 && y1 = y2
    | Lte l1, Lte l2 ->
        l1.test = l2.test && l1.threshold = l2.threshold && l1.less = l2.less
        && l1.otherwise = l2.otherwise
    | Mul (x1, y1), Mul (x2, y2) -> x1 = x2 && y1 = y2
    | Fma f1, Fma f2 ->
        f1.acc = f2.acc && f1.term = f2.term
        && Int64.bits_of_float f1.w = Int64.bits_of_float f2.w
    | ( ( Const _ | Vc _ | Unary _ | Binary _ | Lte _ | Mul _ | Fma _ ),
        ( Const _ | Vc _ | Unary _ | Binary _ | Lte _ | Mul _ | Fma _ ) ) ->
        false

  let hash n =
    (match n with
    | Const w -> combine 0x51 (fbits w)
    | Vc { vars; exps } -> Array.fold_left combine (Array.fold_left combine 0x52 vars) exps
    | Unary (op, x) -> combine (combine 0x53 (Hashtbl.hash op)) x
    | Binary (op, x, y) -> combine (combine (combine 0x54 (Hashtbl.hash op)) x) y
    | Lte { test; threshold; less; otherwise } ->
        combine (combine (combine (combine 0x55 test) threshold) less) otherwise
    | Mul (x, y) -> combine (combine 0x56 x) y
    | Fma { acc; w; term } -> combine (combine (combine 0x57 acc) (fbits w)) term)
    land max_int
end

module Node_tbl = Hashtbl.Make (Node_key)

type builder = {
  tbl : int Node_tbl.t;
  mutable rev_nodes : node list;
  mutable count : int;
  mutable interned : int;  (* nodes_in: intern calls = unshared node count *)
}

let builder () = { tbl = Node_tbl.create 256; rev_nodes = []; count = 0; interned = 0 }

let intern b node =
  b.interned <- b.interned + 1;
  match Node_tbl.find_opt b.tbl node with
  | Some id -> id
  | None ->
      let id = b.count in
      b.count <- id + 1;
      b.rev_nodes <- node :: b.rev_nodes;
      Node_tbl.add b.tbl node id;
      id

(* --- lowering (the interpreter's evaluation order) ---------------------- *)

let vc_node b exponents =
  let vars = ref [] and exps = ref [] in
  Array.iteri
    (fun v e ->
      if e <> 0 then begin
        vars := v :: !vars;
        exps := e :: !exps
      end)
    exponents;
  match !vars with
  | [] -> intern b (Const 1.)
  | _ -> intern b (Vc { vars = Array.of_list (List.rev !vars); exps = Array.of_list (List.rev !exps) })

let rec basis_node b (bs : Expr.basis) =
  let head =
    match bs.Expr.vc with None -> intern b (Const 1.) | Some exponents -> vc_node b exponents
  in
  List.fold_left
    (fun acc f ->
      let factor = factor_node b f in
      intern b (Mul (acc, factor)))
    head bs.Expr.factors

and factor_node b = function
  | Expr.Unary (op, ws) ->
      let x = wsum_node b ws in
      intern b (Unary (op, x))
  | Expr.Binary (op, a1, a2) ->
      let x = arg_node b a1 in
      let y = arg_node b a2 in
      intern b (Binary (op, x, y))
  | Expr.Lte { test; threshold; less; otherwise } ->
      let test = wsum_node b test in
      let threshold = arg_node b threshold in
      let less = arg_node b less in
      let otherwise = arg_node b otherwise in
      intern b (Lte { test; threshold; less; otherwise })

and arg_node b = function
  | Expr.Const w -> intern b (Const w)
  | Expr.Sum ws -> wsum_node b ws

and wsum_node b (ws : Expr.wsum) =
  let acc = intern b (Const ws.Expr.bias) in
  List.fold_left
    (fun acc (w, bs) ->
      let term = basis_node b bs in
      intern b (Fma { acc; w; term }))
    acc ws.Expr.terms

(* --- kernel tape --------------------------------------------------------- *)

type kinstr =
  | Kconst of { dst : int; w : float }
  | Kvc of { dst : int; vars : int array; exps : int array }
  | Kunary of { dst : int; src : int; op : Op.unary }
  | Kbinary of { dst : int; a : int; b : int; op : Op.binary }
  | Klte of { dst : int; test : int; threshold : int; less : int; otherwise : int }
  | Kmul of { dst : int; a : int; b : int }
  | Kfma of { dst : int; acc : int; w : float; term : int }
  | Kout of { root : int; src : int }  (* copy a root's tile into its output row *)

type t = {
  dag : node array;
  root_ids : int array;
  code : kinstr array;
  slot_count : int;
  tile_width : int;
  nodes_in : int;
  used_vars : int array;  (* design variables some Kvc reads, ascending *)
}

let operands = function
  | Const _ | Vc _ -> []
  | Unary (_, x) -> [ x ]
  | Binary (_, x, y) | Mul (x, y) -> [ x; y ]
  | Fma { acc; term; _ } -> [ acc; term ]
  | Lte { test; threshold; less; otherwise } -> [ test; threshold; less; otherwise ]

(* Tiles per live slot must together fit ~L1 (32 KiB = 4096 doubles); the
   floor keeps per-tile dispatch amortized on huge DAGs, the cap keeps a
   lone root from streaming megabyte tiles through L2. *)
let pick_tile ~slot_count = Stdlib.max 64 (Stdlib.min 4096 (4096 / Stdlib.max 1 slot_count))

let plan b root_ids =
  let dag = Array.of_list (List.rev b.rev_nodes) in
  let count = Array.length dag in
  (* Last read of each node's value; a node nobody reads dies at itself
     (its Kout, if it is a root, is emitted before the slot is released). *)
  let last_use = Array.init count (fun i -> i) in
  Array.iteri (fun i n -> List.iter (fun o -> last_use.(o) <- i) (operands n)) dag;
  let roots_at = Array.make (Stdlib.max 1 count) [] in
  Array.iteri (fun r id -> roots_at.(id) <- r :: roots_at.(id)) root_ids;
  let slot_of = Array.make (Stdlib.max 1 count) (-1) in
  let free = ref [] in
  let next = ref 0 in
  let alloc () =
    match !free with
    | s :: rest ->
        free := rest;
        s
    | [] ->
        let s = !next in
        incr next;
        s
  in
  let release s = free := s :: !free in
  let code = ref [] in
  let emit k = code := k :: !code in
  Array.iteri
    (fun i n ->
      let ops = operands n in
      (* Free dying operand slots first so the destination can alias one:
         every kernel reads operand sample j before writing sample j. *)
      List.iter
        (fun o -> if last_use.(o) = i then release slot_of.(o))
        (List.sort_uniq Stdlib.compare ops);
      let dst = alloc () in
      slot_of.(i) <- dst;
      (match n with
      | Const w -> emit (Kconst { dst; w })
      | Vc { vars; exps } -> emit (Kvc { dst; vars; exps })
      | Unary (op, x) -> emit (Kunary { dst; src = slot_of.(x); op })
      | Binary (op, x, y) -> emit (Kbinary { dst; a = slot_of.(x); b = slot_of.(y); op })
      | Lte { test; threshold; less; otherwise } ->
          emit
            (Klte
               {
                 dst;
                 test = slot_of.(test);
                 threshold = slot_of.(threshold);
                 less = slot_of.(less);
                 otherwise = slot_of.(otherwise);
               })
      | Mul (x, y) -> emit (Kmul { dst; a = slot_of.(x); b = slot_of.(y) })
      | Fma { acc; w; term } ->
          emit (Kfma { dst; acc = slot_of.(acc); w; term = slot_of.(term) }));
      List.iter (fun r -> emit (Kout { root = r; src = dst })) (List.rev roots_at.(i));
      if last_use.(i) = i then release dst)
    dag;
  let slot_count = !next in
  let used_vars =
    Array.fold_left
      (fun acc n -> match n with Vc { vars; _ } -> Array.to_list vars @ acc | _ -> acc)
      [] dag
  in
  {
    dag;
    root_ids;
    code = Array.of_list (List.rev !code);
    slot_count;
    tile_width = pick_tile ~slot_count;
    nodes_in = b.interned;
    used_vars = Array.of_list (List.sort_uniq Stdlib.compare used_vars);
  }

let compile bases =
  let b = builder () in
  let root_ids = Array.map (basis_node b) bases in
  plan b root_ids

let compile_wsums wsums =
  let b = builder () in
  let root_ids = Array.map (wsum_node b) wsums in
  plan b root_ids

let roots t = t.root_ids
let nodes t = t.dag
let nodes_in t = t.nodes_in
let nodes_out t = Array.length t.dag
let tile t = t.tile_width
let slots t = t.slot_count

(* --- evaluation ---------------------------------------------------------- *)

type scratch = { mutable bufs : float array array; mutable width : int }

let scratch () = { bufs = [||]; width = 0 }

let ensure scratch ~slots ~width =
  if scratch.width < width then begin
    scratch.bufs <-
      Array.init (Stdlib.max slots (Array.length scratch.bufs)) (fun _ -> Array.make width 0.);
    scratch.width <- width
  end
  else if Array.length scratch.bufs < slots then begin
    let fresh = Array.init slots (fun _ -> Array.make scratch.width 0.) in
    Array.blit scratch.bufs 0 fresh 0 (Array.length scratch.bufs);
    scratch.bufs <- fresh
  end

(* One tile of every kernel.  [indices = None] reads samples [lo, lo+len);
   [Some idx] gathers samples [idx.(lo+j)] (the probe path).  Output rows
   are indexed by tile position either way.  The loops compute what
   Expr.eval_basis computes per sample (the Square/Abs/Div specializations
   equal their Op.apply_* results, and Lte keeps the interpreter's NaN
   convention).  Design columns and probe indices are read unchecked:
   [check_columns] and [check_indices] validate them once per call. *)
let exec_tile code bufs ~columns ~outputs ~indices ~lo ~len =
  Array.iter
    (fun k ->
      match k with
      | Kconst { dst; w } -> Array.fill bufs.(dst) 0 len w
      | Kvc { dst; vars; exps } ->
          let buf = bufs.(dst) in
          Array.fill buf 0 len 1.;
          for k = 0 to Array.length vars - 1 do
            let column = columns.(Array.unsafe_get vars k) in
            let e = Array.unsafe_get exps k in
            (match indices with
            | None ->
                if e = 1 then
                  for j = 0 to len - 1 do
                    Array.unsafe_set buf j
                      (Array.unsafe_get buf j *. Array.unsafe_get column (lo + j))
                  done
                else
                  for j = 0 to len - 1 do
                    Array.unsafe_set buf j
                      (Array.unsafe_get buf j *. Expr.int_pow (Array.unsafe_get column (lo + j)) e)
                  done
            | Some idx ->
                if e = 1 then
                  for j = 0 to len - 1 do
                    Array.unsafe_set buf j
                      (Array.unsafe_get buf j
                      *. Array.unsafe_get column (Array.unsafe_get idx (lo + j)))
                  done
                else
                  for j = 0 to len - 1 do
                    Array.unsafe_set buf j
                      (Array.unsafe_get buf j
                      *. Expr.int_pow
                           (Array.unsafe_get column (Array.unsafe_get idx (lo + j)))
                           e)
                  done)
          done
      | Kunary { dst; src; op } -> (
          let src = bufs.(src) and dst = bufs.(dst) in
          match op with
          | Op.Square ->
              for j = 0 to len - 1 do
                let v = Array.unsafe_get src j in
                Array.unsafe_set dst j (v *. v)
              done
          | Op.Abs ->
              for j = 0 to len - 1 do
                Array.unsafe_set dst j (Float.abs (Array.unsafe_get src j))
              done
          | op ->
              for j = 0 to len - 1 do
                Array.unsafe_set dst j (Op.apply_unary op (Array.unsafe_get src j))
              done)
      | Kbinary { dst; a; b; op } -> (
          let a = bufs.(a) and b = bufs.(b) and dst = bufs.(dst) in
          match op with
          | Op.Div ->
              for j = 0 to len - 1 do
                let y = Array.unsafe_get b j in
                Array.unsafe_set dst j
                  (if y = 0. then Float.nan else Array.unsafe_get a j /. y)
              done
          | op ->
              for j = 0 to len - 1 do
                Array.unsafe_set dst j
                  (Op.apply_binary op (Array.unsafe_get a j) (Array.unsafe_get b j))
              done)
      | Klte { dst; test; threshold; less; otherwise } ->
          let test = bufs.(test)
          and threshold = bufs.(threshold)
          and less = bufs.(less)
          and otherwise = bufs.(otherwise)
          and dst = bufs.(dst) in
          for j = 0 to len - 1 do
            let t = Array.unsafe_get test j and th = Array.unsafe_get threshold j in
            Array.unsafe_set dst j
              (if Float.is_nan t || Float.is_nan th then Float.nan
               else if t <= th then Array.unsafe_get less j
               else Array.unsafe_get otherwise j)
          done
      | Kmul { dst; a; b } ->
          let a = bufs.(a) and b = bufs.(b) and dst = bufs.(dst) in
          for j = 0 to len - 1 do
            Array.unsafe_set dst j (Array.unsafe_get a j *. Array.unsafe_get b j)
          done
      | Kfma { dst; acc; w; term } ->
          let acc = bufs.(acc) and term = bufs.(term) and dst = bufs.(dst) in
          for j = 0 to len - 1 do
            Array.unsafe_set dst j
              (Array.unsafe_get acc j +. (w *. Array.unsafe_get term j))
          done
      | Kout { root; src } -> Array.blit bufs.(src) 0 outputs.(root) lo len)
    code

(* Every design column a Kvc reads must cover the samples the call
   touches; checking once per call costs O(used variables + indices) and
   keeps the unchecked kernel reads in bounds. *)
let check_columns t ~fn ~columns ~n =
  Array.iter
    (fun v ->
      if v >= Array.length columns then
        invalid_arg (Printf.sprintf "Fused.%s: no column for variable %d" fn v);
      if Array.length columns.(v) < n then
        invalid_arg (Printf.sprintf "Fused.%s: column %d shorter than %d samples" fn v n))
    t.used_vars

let check_indices t ~columns ~indices =
  check_columns t ~fn:"eval_probe" ~columns ~n:0;
  let rows =
    Array.fold_left (fun m v -> Stdlib.min m (Array.length columns.(v))) max_int t.used_vars
  in
  Array.iter
    (fun i ->
      if i < 0 || i >= rows then
        invalid_arg (Printf.sprintf "Fused.eval_probe: index %d outside the columns" i))
    indices

(* Tiles never exceed [n] samples, so a short call (a probe, one design
   point) sizes the arena to [n] rather than a full tile. *)
let run t s ~columns ~outputs ~indices ~n =
  ensure s ~slots:(Stdlib.max 1 t.slot_count) ~width:(Stdlib.min t.tile_width n);
  let bufs = s.bufs in
  let lo = ref 0 in
  while !lo < n do
    let len = Stdlib.min t.tile_width (n - !lo) in
    exec_tile t.code bufs ~columns ~outputs ~indices ~lo:!lo ~len;
    lo := !lo + len
  done

let eval_columns t ~scratch ~columns ~n =
  check_columns t ~fn:"eval_columns" ~columns ~n;
  let outputs = Array.map (fun _ -> Array.make n 0.) t.root_ids in
  run t scratch ~columns ~outputs ~indices:None ~n;
  outputs

let eval_columns_into t ~scratch ~columns ~n ~out =
  if Array.length out <> Array.length t.root_ids then
    invalid_arg "Fused.eval_columns_into: one output buffer per root required";
  Array.iter
    (fun buf ->
      if Array.length buf < n then
        invalid_arg "Fused.eval_columns_into: output buffer shorter than n")
    out;
  check_columns t ~fn:"eval_columns_into" ~columns ~n;
  run t scratch ~columns ~outputs:out ~indices:None ~n

let eval_probe t ~columns ~indices =
  check_indices t ~columns ~indices;
  let n = Array.length indices in
  let outputs = Array.map (fun _ -> Array.make n 0.) t.root_ids in
  run t (scratch ()) ~columns ~outputs ~indices:(Some indices) ~n;
  outputs
