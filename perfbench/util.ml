(* Pure helpers of the benchmark: order statistics, the quality
   hypervolume, front digests and span arithmetic.  Kept free of timing
   and I/O so the unit tests in test/ can pin them exactly. *)

let sorted values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, the "inclusive" method of
   Python's statistics.quantiles: position p·(n−1) in the sorted sample. *)
let quantile values p =
  let n = Array.length values in
  if n = 0 then invalid_arg "Util.quantile: empty sample";
  if p < 0. || p > 1. then invalid_arg "Util.quantile: p outside [0, 1]";
  let a = sorted values in
  let pos = p *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = Stdlib.min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median values = quantile values 0.5

(* A percentile is reported only when at least [beyond] samples lie above
   it: with n samples, n·(1−p) of them are beyond the p-th percentile. *)
let min_beyond = 10

let supports_percentile ~n p = float_of_int n *. (1. -. p) >= float_of_int min_beyond

let percentile values p =
  if supports_percentile ~n:(Array.length values) p then Some (quantile values p) else None

(* Hypervolume dominated by a two-objective minimization front inside the
   box [0, ref_x] × [0, ref_y], divided by the box area so the result is a
   unitless share in [0, 1].  Points outside the box contribute nothing;
   dominated points and duplicates are harmless. *)
let hypervolume ~ref_x ~ref_y points =
  if ref_x <= 0. || ref_y <= 0. then invalid_arg "Util.hypervolume: reference must be positive";
  let inside =
    List.filter
      (fun (x, y) -> Float.is_finite x && Float.is_finite y && x < ref_x && y < ref_y)
      points
    |> List.map (fun (x, y) -> (Float.max 0. x, Float.max 0. y))
    |> List.sort compare
  in
  (* Sweep by increasing x: each point adds the slab between its x and the
     reference, of height (best y so far − its y) when it improves on y. *)
  let area, _ =
    List.fold_left
      (fun (area, best_y) (x, y) ->
        if y < best_y then (area +. ((ref_x -. x) *. (best_y -. y)), y) else (area, best_y))
      (0., ref_y) inside
  in
  area /. (ref_x *. ref_y)

(* A digest of a front's exact content: every objective as its IEEE bits
   and every basis tree structurally (no sharing), so two fronts digest
   equal iff they are bit-identical. *)
let front_digest (front : Caffeine.Model.t list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (m : Caffeine.Model.t) ->
      List.iter
        (fun v -> Buffer.add_string b (Int64.to_string (Int64.bits_of_float v) ^ ";"))
        ((m.Caffeine.Model.train_error :: m.Caffeine.Model.complexity :: m.Caffeine.Model.intercept
         :: Array.to_list m.Caffeine.Model.weights));
      Buffer.add_string b (Marshal.to_string m.Caffeine.Model.bases [ Marshal.No_sharing ]);
      Buffer.add_char b '|')
    front;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Total length of the union of half-open intervals [start, stop). *)
let union_length intervals =
  let sorted = List.sort compare (List.filter (fun (a, b) -> b > a) intervals) in
  let total, last =
    List.fold_left
      (fun (total, current) (a, b) ->
        match current with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Stdlib.max cb b))
            else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of a span: its duration minus the part of it that its child
   spans cover.  Children may overlap one another (they ran on different
   domains) and may stick out of the parent; only the covered part of the
   parent's own interval is subtracted. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Stdlib.max a start and b = Stdlib.min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  Stdlib.max 0 (stop - start - union_length clipped)
