exception Singular

(* Householder QR in two passes.  [householder_columns] applies reflectors
   H_k to working copies of the columns, one float array each, producing R
   with P a = R for P = H_{n-1} … H_0, and keeps the reflectors.  A
   reflector reads and writes one column at a time, rows >= k only, so H_k
   is applied to columns j >= k alone: rows >= k of an earlier column lie
   below its diagonal and never reach R.  Since each reflector is
   symmetric, Q = Pᵀ = H_0 … H_{n-1}; [q_of] applies the stored reflectors
   in reverse order to a thin identity to materialize Q.  The passes are
   separate so the solvers below can check the rank on R first and skip
   the Q pass when a rank-deficient design takes the ridge route. *)
let reflect col k v vnorm2 =
  let m = Array.length col in
  let dot = ref 0. in
  for i = k to m - 1 do
    dot := !dot +. (v.(i) *. col.(i))
  done;
  let factor = 2. *. !dot /. vnorm2 in
  if factor <> 0. then
    for i = k to m - 1 do
      col.(i) <- col.(i) -. (factor *. v.(i))
    done

let householder_columns cols =
  let n = Array.length cols in
  let m = if n = 0 then invalid_arg "Decomp.qr: no columns" else Array.length cols.(0) in
  if Array.exists (fun c -> Array.length c <> m) cols then invalid_arg "Decomp.qr: ragged columns";
  if m < n then invalid_arg "Decomp.qr: need rows >= cols";
  let reflectors = Array.make n None in
  for k = 0 to n - 1 do
    let c = cols.(k) in
    let norm = ref 0. in
    for i = k to m - 1 do
      norm := !norm +. (c.(i) *. c.(i))
    done;
    let norm = sqrt !norm in
    if norm > 0. then begin
      let v = Array.make m 0. in
      let head = c.(k) in
      let alpha = if head >= 0. then -.norm else norm in
      v.(k) <- head -. alpha;
      for i = k + 1 to m - 1 do
        v.(i) <- c.(i)
      done;
      let vnorm2 = ref 0. in
      for i = k to m - 1 do
        vnorm2 := !vnorm2 +. (v.(i) *. v.(i))
      done;
      if !vnorm2 > 0. then begin
        for j = k to n - 1 do
          reflect cols.(j) k v !vnorm2
        done;
        reflectors.(k) <- Some (v, !vnorm2)
      end
    end
  done;
  (reflectors, Matrix.init n n (fun i j -> if i <= j then cols.(j).(i) else 0.))

let householder a = householder_columns (Array.init (Matrix.cols a) (Matrix.column a))

(* Every column of the identity gets every reflector: left of k that is a
   no-op for finite reflectors, and it keeps Q the same word on any input. *)
let q_of ~m reflectors =
  let n = Array.length reflectors in
  let cols = Array.init n (fun j -> Array.init m (fun i -> if i = j then 1. else 0.)) in
  for k = n - 1 downto 0 do
    match reflectors.(k) with
    | None -> ()
    | Some (v, vnorm2) -> Array.iter (fun col -> reflect col k v vnorm2) cols
  done;
  Matrix.init m n (fun i j -> cols.(j).(i))

let qr a =
  let reflectors, r = householder a in
  (q_of ~m:(Matrix.rows a) reflectors, r)

let solve_upper_triangular r b =
  let n = Matrix.rows r in
  if Matrix.cols r <> n || Array.length b <> n then
    invalid_arg "Decomp.solve_upper_triangular: dimension mismatch";
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Matrix.get r i j *. x.(j))
    done;
    let pivot = Matrix.get r i i in
    if pivot = 0. then raise Singular;
    x.(i) <- !acc /. pivot
  done;
  x

let solve_lower_triangular l b =
  let n = Matrix.rows l in
  if Matrix.cols l <> n || Array.length b <> n then
    invalid_arg "Decomp.solve_lower_triangular: dimension mismatch";
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Matrix.get l i j *. x.(j))
    done;
    let pivot = Matrix.get l i i in
    if pivot = 0. then raise Singular;
    x.(i) <- !acc /. pivot
  done;
  x

let lu_solve a b =
  let n = Matrix.rows a in
  if Matrix.cols a <> n || Array.length b <> n then
    invalid_arg "Decomp.lu_solve: dimension mismatch";
  let work = Matrix.copy a in
  let rhs = Array.copy b in
  for k = 0 to n - 1 do
    (* Partial pivoting. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Matrix.get work i k) > Float.abs (Matrix.get work !best k) then best := i
    done;
    if !best <> k then begin
      for j = 0 to n - 1 do
        let tmp = Matrix.get work k j in
        Matrix.set work k j (Matrix.get work !best j);
        Matrix.set work !best j tmp
      done;
      let tmp = rhs.(k) in
      rhs.(k) <- rhs.(!best);
      rhs.(!best) <- tmp
    end;
    let pivot = Matrix.get work k k in
    if Float.abs pivot < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = Matrix.get work i k /. pivot in
      if factor <> 0. then begin
        for j = k to n - 1 do
          Matrix.set work i j (Matrix.get work i j -. (factor *. Matrix.get work k j))
        done;
        rhs.(i) <- rhs.(i) -. (factor *. rhs.(k))
      end
    done
  done;
  solve_upper_triangular work rhs

let cholesky a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Decomp.cholesky: not square";
  let l = Matrix.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Matrix.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Matrix.get l i k *. Matrix.get l j k)
      done;
      if i = j then begin
        if !acc <= 0. then raise Singular;
        Matrix.set l i i (sqrt !acc)
      end
      else Matrix.set l i j (!acc /. Matrix.get l j j)
    done
  done;
  l

let solve_spd a b =
  let l = cholesky a in
  let y = solve_lower_triangular l b in
  solve_upper_triangular (Matrix.transpose l) y

let rank_from_r ?(tol = 1e-10) r =
  let n = min (Matrix.rows r) (Matrix.cols r) in
  let largest = ref 0. in
  for i = 0 to n - 1 do
    largest := Float.max !largest (Float.abs (Matrix.get r i i))
  done;
  let threshold = !largest *. tol in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Float.abs (Matrix.get r i i) > threshold then incr count
  done;
  !count

let column_rank columns =
  rank_from_r (snd (householder_columns (Array.map Array.copy columns)))

(* One factorization of a design serves both the solve and the leverages:
   either the thin QR of a full-rank [a], or the Cholesky factor of the
   ridge-regularized Gram [aᵀa + λI] when [a] is wide or numerically
   rank-deficient.  Q is only built once R has shown full rank. *)
type factored =
  | Full_rank of Matrix.t * Matrix.t  (* q, r *)
  | Ridge of Matrix.t  (* l with l lᵀ = aᵀa + λI *)

let ridge_factor ?ridge g =
  let n = Matrix.cols g in
  let trace = ref 0. in
  for i = 0 to n - 1 do
    trace := !trace +. Matrix.get g i i
  done;
  let trace = Float.max !trace 1. in
  let lambda = match ridge with Some r -> r | None -> 1e-10 *. trace /. float_of_int n in
  cholesky
    (Matrix.init n n (fun i j ->
         let base = Matrix.get g i j in
         if i = j then base +. lambda else base))

let solve_ridge l atb = solve_upper_triangular (Matrix.transpose l) (solve_lower_triangular l atb)

let ridge_solve g atb =
  if Matrix.rows g <> Matrix.cols g || Matrix.rows g <> Array.length atb then
    invalid_arg "Decomp.ridge_solve: dimension mismatch";
  solve_ridge (ridge_factor g) atb

let factor ?ridge a =
  if Matrix.rows a < Matrix.cols a then Ridge (ridge_factor ?ridge (Matrix.gram a))
  else
    let reflectors, r = householder a in
    if rank_from_r r < Matrix.cols a then Ridge (ridge_factor ?ridge (Matrix.gram a))
    else Full_rank (q_of ~m:(Matrix.rows a) reflectors, r)

let solve_factored f a b =
  match f with
  | Full_rank (q, r) -> solve_upper_triangular r (Matrix.mul_vec (Matrix.transpose q) b)
  | Ridge l -> solve_ridge l (Matrix.mul_vec (Matrix.transpose a) b)

let leverages f a =
  let m = Matrix.rows a and n = Matrix.cols a in
  match f with
  | Full_rank (q, _) ->
      Array.init m (fun i ->
          let acc = ref 0. in
          for j = 0 to n - 1 do
            let qij = Matrix.get q i j in
            acc := !acc +. (qij *. qij)
          done;
          !acc)
  | Ridge l ->
      (* h_ii = aᵢᵀ (aᵀa + λI)⁻¹ aᵢ, one SPD solve per column of aᵀ. *)
      let h = Array.make m 0. in
      for i = 0 to m - 1 do
        let ai = Matrix.row a i in
        let y = solve_lower_triangular l ai in
        let z = solve_upper_triangular (Matrix.transpose l) y in
        let acc = ref 0. in
        for k = 0 to n - 1 do
          acc := !acc +. (ai.(k) *. z.(k))
        done;
        h.(i) <- !acc
      done;
      h

let lstsq ?ridge a b =
  if Matrix.rows a <> Array.length b then invalid_arg "Decomp.lstsq: dimension mismatch";
  solve_factored (factor ?ridge a) a b

let hat_diag ?ridge a = leverages (factor ?ridge a) a

let press ?ridge a b =
  if Matrix.rows a <> Array.length b then invalid_arg "Decomp.press: dimension mismatch";
  let f = factor ?ridge a in
  let coeffs = solve_factored f a b in
  let predicted = Matrix.mul_vec a coeffs in
  let leverages = leverages f a in
  let m = Matrix.rows a in
  let acc = ref 0. in
  for i = 0 to m - 1 do
    let denom = Float.max (1. -. leverages.(i)) 1e-9 in
    let e = (b.(i) -. predicted.(i)) /. denom in
    acc := !acc +. (e *. e)
  done;
  !acc
