module Expr = Caffeine_expr.Expr
module Compiled = Caffeine_expr.Compiled
module Fused = Caffeine_expr.Fused

(* The basis-column memo table is sharded by the full structural hash, each
   shard behind its own mutex, so concurrent evaluators (parallel NSGA-II
   objective evaluation, parallel islands) rarely contend on the same lock.
   Column values are pure functions of (basis, data), so a racing duplicate
   evaluation is only wasted work, never a wrong or nondeterministic
   result.

   The dot-product caches follow the same design one level up: the Gram
   matrix the regression engine assembles for each individual is made of
   ⟨col_i, col_j⟩ and ⟨col_i, y⟩ entries, and bases recur heavily across a
   population and across generations (set crossover copies them wholesale),
   so each pairwise product is worth computing once per dataset.  Pair keys
   are unordered — hash = sum of the two structural hashes, equality checks
   both orders — and target products are keyed by (basis, target id) where
   ids come from a small physical-equality registry (the search passes the
   same target array on every call). *)

let shard_count = 16 (* power of two: shard selection is a mask *)

type shard = {
  lock : Mutex.t;
  table : float array Compiled.Tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

module Pair_key = struct
  type t = Expr.basis * Expr.basis

  let equal (a1, b1) (a2, b2) =
    (Compiled.Key.equal a1 a2 && Compiled.Key.equal b1 b2)
    || (Compiled.Key.equal a1 b2 && Compiled.Key.equal b1 a2)

  (* Commutative combination: an unordered pair hashes the same both ways. *)
  let hash (a, b) = (Compiled.hash_basis a + Compiled.hash_basis b) land max_int
end

module Pair_tbl = Hashtbl.Make (Pair_key)

module Target_key = struct
  type t = Expr.basis * int

  let equal (b1, t1) (b2, t2) = t1 = t2 && Compiled.Key.equal b1 b2
  let hash (b, t) = (Compiled.hash_basis b + (t * 0x9e3779b1)) land max_int
end

module Target_tbl = Hashtbl.Make (Target_key)

type dot_shard = {
  dot_lock : Mutex.t;
  pairs : float Pair_tbl.t;  (* ⟨col_i, col_j⟩, unordered key *)
  target_dots : float Target_tbl.t;  (* ⟨col_i, y⟩ per registered target *)
  mutable dot_hits : int;
  mutable dot_misses : int;
  mutable dot_evictions : int;
}

(* Out-of-core storage: samples arrive as row chunks from a pull-based
   source instead of resident columns.  [src_iter] visits the chunks in
   row order with reused buffers (only [len] leading cells are valid);
   [src_gather] is the random-access path for probes.  The concrete source
   is either a {!Colstore} file or a sliced in-memory matrix (tests). *)
type chunk_source = {
  src_chunk_rows : int;
  src_iter : (row0:int -> len:int -> float array array -> unit) -> unit;
  src_gather : int array -> float array array;
}

type storage =
  | Dense of float array array  (* columns.(v).(i): variable v at sample i *)
  | Chunked of chunk_source

type t = {
  var_names : string array;
  storage : storage;
  n : int;
  fused_scratch_key : Fused.scratch Domain.DLS.key;
      (* per-domain tile arena: evaluation reuses buffers without sharing
         them across concurrent evaluators *)
  shards : shard array;  (* basis -> value column on this data *)
  mutable cache_limit : int;  (* max cached columns across all shards *)
  dot_shards : dot_shard array;
  mutable dot_cache_limit : int;  (* max cached products across all shards *)
  finite_lock : Mutex.t;
  finite_table : bool Compiled.Tbl.t;
      (* chunked storage only: per-basis finiteness screened during the
         streaming Gram pass, cached so repeat fits skip the data pass *)
  ones : float array;  (* registered as target id 0: ⟨col, 1⟩ = column sum.
                          On chunked storage this is a private 1-element
                          sentinel (a full ones column would defeat the
                          memory bound); the streamed ⟨col, 1⟩ multiplies
                          by the literal 1. instead. *)
  targets_lock : Mutex.t;
  mutable registered_targets : (float array * int) list;  (* keyed by (==) *)
  mutable next_target_id : int;
}

type cache_stats = {
  columns_cached : int;
  column_hits : int;
  column_misses : int;
  column_evictions : int;
  dots_cached : int;
  dot_hits : int;
  dot_misses : int;
  dot_evictions : int;
}

let default_cache_limit = 32_768
let default_dot_cache_limit = 131_072

let default_names dims = Array.init dims (fun v -> Printf.sprintf "x%d" v)

let resolve_names ~dims var_names =
  match var_names with
  | None -> default_names dims
  | Some names ->
      if Array.length names <> dims then invalid_arg "Dataset: name/column count mismatch";
      names

let make_with ~var_names ~storage ~n ~ones =
  {
    var_names;
    storage;
    n;
    fused_scratch_key = Domain.DLS.new_key (fun () -> Fused.scratch ());
    shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create (); table = Compiled.Tbl.create 64;
            hits = 0; misses = 0; evictions = 0 });
    cache_limit = default_cache_limit;
    dot_shards =
      Array.init shard_count (fun _ ->
          { dot_lock = Mutex.create (); pairs = Pair_tbl.create 64;
            target_dots = Target_tbl.create 64;
            dot_hits = 0; dot_misses = 0; dot_evictions = 0 });
    dot_cache_limit = default_dot_cache_limit;
    finite_lock = Mutex.create ();
    finite_table = Compiled.Tbl.create 64;
    ones;
    targets_lock = Mutex.create ();
    registered_targets = [ (ones, 0) ];
    next_target_id = 1;
  }

let make ?var_names columns n =
  let dims = Array.length columns in
  if dims = 0 then invalid_arg "Dataset: zero design variables";
  let var_names = resolve_names ~dims var_names in
  (* Every consumer downstream — fused kernels included — indexes columns
     with unsafe accesses trusting [n], so a short column here would read
     out of bounds later.  Reject it now, naming the variable. *)
  Array.iteri
    (fun v col ->
      if Array.length col <> n then
        invalid_arg
          (Printf.sprintf "Dataset: column %S has %d values, expected %d" var_names.(v)
             (Array.length col) n))
    columns;
  make_with ~var_names ~storage:(Dense columns) ~n ~ones:(Array.make n 1.)

let make_chunked ?var_names ~dims source n =
  if dims = 0 then invalid_arg "Dataset: zero design variables";
  if n < 1 then invalid_arg "Dataset: streaming source has no samples";
  if source.src_chunk_rows < 1 then invalid_arg "Dataset: chunk_rows must be positive";
  let var_names = resolve_names ~dims var_names in
  (* The sentinel ones array is never exposed; its only job is holding
     target id 0 in the physical-identity registry.  No caller-supplied
     target can alias it ([Array.make] allocates fresh), so ⟨col, 1⟩
     lookups cannot collide with a real target. *)
  make_with ~var_names ~storage:(Chunked source) ~n ~ones:(Array.make 1 1.)

let of_columns ?var_names columns =
  if Array.length columns = 0 then invalid_arg "Dataset.of_columns: no columns";
  let n = Array.length columns.(0) in
  if n = 0 then invalid_arg "Dataset.of_columns: empty columns";
  (* Length validation happens in [make], which names the offending
     variable — a generic "ragged columns" duplicate here would shadow
     the more useful message. *)
  make ?var_names columns n

let of_rows ?var_names rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Dataset.of_rows: no samples";
  let dims = Array.length rows.(0) in
  if dims = 0 then invalid_arg "Dataset.of_rows: zero-width design points";
  Array.iter
    (fun row -> if Array.length row <> dims then invalid_arg "Dataset.of_rows: ragged rows")
    rows;
  let columns = Array.init dims (fun v -> Array.init n (fun i -> rows.(i).(v))) in
  make ?var_names columns n

let of_table ?(exclude = []) table =
  if Array.length table.Csv.rows = 0 then
    invalid_arg "Dataset.of_table: table has no data rows (header only)";
  let names, rows = Csv.columns_except table exclude in
  of_rows ~var_names:names rows

let chunked_of_columns ?var_names ~chunk_rows columns =
  if Array.length columns = 0 then invalid_arg "Dataset.chunked_of_columns: no columns";
  let n = Array.length columns.(0) in
  if n = 0 then invalid_arg "Dataset.chunked_of_columns: empty columns";
  Array.iter
    (fun col ->
      if Array.length col <> n then
        invalid_arg "Dataset.chunked_of_columns: ragged columns")
    columns;
  let dims = Array.length columns in
  let src_iter f =
    (* Fresh buffers per pass: sliced views of the resident matrix, the
       in-memory stand-in the equivalence tests stream against. *)
    let buffers = Array.init dims (fun _ -> Array.make chunk_rows 0.) in
    let row0 = ref 0 in
    while !row0 < n do
      let len = Stdlib.min chunk_rows (n - !row0) in
      for v = 0 to dims - 1 do
        Array.blit columns.(v) !row0 buffers.(v) 0 len
      done;
      f ~row0:!row0 ~len buffers;
      row0 := !row0 + len
    done
  in
  let src_gather indices =
    Array.map (fun col -> Array.map (fun i -> col.(i)) indices) columns
  in
  make_chunked ?var_names ~dims { src_chunk_rows = chunk_rows; src_iter; src_gather } n

let of_colstore ?(exclude = []) store =
  let all_names = Colstore.var_names store in
  let keep = ref [] in
  Array.iteri
    (fun v name -> if not (List.mem name exclude) then keep := v :: !keep)
    all_names;
  let keep = Array.of_list (List.rev !keep) in
  let dims = Array.length keep in
  if dims = 0 then invalid_arg "Dataset.of_colstore: every column is excluded";
  let var_names = Array.map (fun v -> all_names.(v)) keep in
  let n = Colstore.n_rows store in
  let remap columns = Array.map (fun v -> columns.(v)) keep in
  let src_iter f =
    Colstore.iter_chunks store ~f:(fun ~row0 ~len columns -> f ~row0 ~len (remap columns))
  in
  let src_gather indices = remap (Colstore.gather store ~indices) in
  make_chunked ~var_names ~dims
    { src_chunk_rows = Colstore.chunk_rows store; src_iter; src_gather }
    n

let n_samples data = data.n
let dims data = Array.length data.var_names
let var_names data = data.var_names
let is_chunked data = match data.storage with Dense _ -> false | Chunked _ -> true
let chunk_rows data =
  match data.storage with Dense _ -> data.n | Chunked src -> src.src_chunk_rows

let column data v =
  match data.storage with
  | Dense columns -> columns.(v)
  | Chunked src ->
      let out = Array.make data.n 0. in
      src.src_iter (fun ~row0 ~len columns -> Array.blit columns.(v) 0 out row0 len);
      out

let point data i =
  match data.storage with
  | Dense columns -> Array.map (fun col -> col.(i)) columns
  | Chunked src ->
      let gathered = src.src_gather [| i |] in
      Array.map (fun col -> col.(0)) gathered

let rows data =
  match data.storage with
  | Dense _ -> Array.init data.n (fun i -> point data i)
  | Chunked _ -> invalid_arg "Dataset.rows: not supported on streaming datasets"

let split data ~at =
  match data.storage with
  | Chunked _ -> invalid_arg "Dataset.split: not supported on streaming datasets"
  | Dense columns ->
      if at <= 0 || at >= data.n then invalid_arg "Dataset.split: index out of range";
      let part offset count =
        make ~var_names:data.var_names
          (Array.map (fun col -> Array.sub col offset count) columns)
          count
      in
      (part 0 at, part at (data.n - at))

(* Streams one basis over the chunks in row order: [f] sees each chunk's
   values in the first [len] cells of a buffer reused across chunks.
   Evaluation is elementwise, so chunk-by-chunk values match whole-column
   evaluation bit for bit. *)
let iter_chunk_values data src basis f =
  let fused = Fused.compile [| basis |] in
  let scratch = Domain.DLS.get data.fused_scratch_key in
  let out = [| Array.make src.src_chunk_rows 0. |] in
  src.src_iter (fun ~row0 ~len columns ->
      Fused.eval_columns_into fused ~scratch ~columns ~n:len ~out;
      f ~row0 ~len out.(0))

let eval_column basis data =
  match data.storage with
  | Dense columns ->
      let scratch = Domain.DLS.get data.fused_scratch_key in
      (Fused.eval_columns (Fused.compile [| basis |]) ~scratch ~columns ~n:data.n).(0)
  | Chunked src ->
      let out = Array.make data.n 0. in
      iter_chunk_values data src basis (fun ~row0 ~len values ->
          Array.blit values 0 out row0 len);
      out

let shard_of data basis = data.shards.(Compiled.hash_basis basis land (shard_count - 1))

let basis_column data basis =
  match data.storage with
  | Chunked _ ->
      (* Bypass policy (DESIGN §7j): an out-of-core column is [n] floats —
         caching even a few would blow the memory budget streaming exists
         to hold, so chunked storage materializes fresh and never fills
         the column cache.  Dot products, being scalars, stay cached. *)
      eval_column basis data
  | Dense _ ->
  let shard = shard_of data basis in
  Mutex.lock shard.lock;
  match Compiled.Tbl.find_opt shard.table basis with
  | Some col ->
      shard.hits <- shard.hits + 1;
      Mutex.unlock shard.lock;
      col
  | None ->
      shard.misses <- shard.misses + 1;
      Mutex.unlock shard.lock;
      (* Evaluate outside the lock: another domain may compute the same
         column concurrently, but both results are identical. *)
      let col = eval_column basis data in
      let per_shard_limit = Stdlib.max 1 (data.cache_limit / shard_count) in
      Mutex.lock shard.lock;
      if Compiled.Tbl.length shard.table >= per_shard_limit then begin
        (* Simple bounded policy: drop the shard wholesale once full.
           Misses just re-evaluate; values are unaffected. *)
        shard.evictions <- shard.evictions + Compiled.Tbl.length shard.table;
        Compiled.Tbl.reset shard.table
      end;
      if not (Compiled.Tbl.mem shard.table basis) then Compiled.Tbl.add shard.table basis col;
      Mutex.unlock shard.lock;
      col

(* On chunked storage, probes gather the input variables at the probe rows
   and evaluate with identity indices over the gathered slices: probe
   evaluation is elementwise, so the values match what a materialized
   column would hold at those rows — fingerprints agree across storage
   kinds. *)
let identity_indices indices = Array.init (Array.length indices) Fun.id

(* --- fused batch evaluation ---------------------------------------------- *)

module Metrics = Caffeine_obs.Metrics

let c_fused_nodes_in = Metrics.counter Metrics.default "fused.nodes_in"
let c_fused_nodes_out = Metrics.counter Metrics.default "fused.nodes_out"
let g_fused_cse_ratio = Metrics.gauge Metrics.default "fused.cse_ratio"

type fuse_stats = { fused_bases : int; nodes_in : int; nodes_out : int }

let record_fusion fused =
  let nodes_in = Fused.nodes_in fused and nodes_out = Fused.nodes_out fused in
  Metrics.add c_fused_nodes_in nodes_in;
  Metrics.add c_fused_nodes_out nodes_out;
  let total_in = Metrics.counter_value c_fused_nodes_in
  and total_out = Metrics.counter_value c_fused_nodes_out in
  Metrics.set_gauge g_fused_cse_ratio
    (float_of_int total_in /. float_of_int (Stdlib.max 1 total_out));
  (nodes_in, nodes_out)

let warm_columns data bases =
  match data.storage with
  | Chunked _ ->
      (* Nothing to warm: out-of-core columns are never cached (see
         [basis_column]), so warming would materialize n-length arrays
         only to drop them. *)
      ignore bases;
      { fused_bases = 0; nodes_in = 0; nodes_out = 0 }
  | Dense dense_columns ->
  (* One pass to find the bases with no memoized column (first occurrence
     only: a fused compile handles duplicate roots, but the cache needs
     one install per distinct basis), then one fused evaluation of all of
     them together, installed under the same bounded-shard policy as
     [basis_column].  Each row of the fused result is bit-identical to the
     one-root column [basis_column] computes, so a warmed cache serves
     exactly the values a cold one would have computed. *)
  let seen = Compiled.Tbl.create (Array.length bases) in
  let rev_missing = ref [] in
  Array.iter
    (fun basis ->
      if not (Compiled.Tbl.mem seen basis) then begin
        Compiled.Tbl.add seen basis ();
        let shard = shard_of data basis in
        Mutex.lock shard.lock;
        let cached = Compiled.Tbl.mem shard.table basis in
        Mutex.unlock shard.lock;
        if not cached then rev_missing := basis :: !rev_missing
      end)
    bases;
  match !rev_missing with
  | [] -> { fused_bases = 0; nodes_in = 0; nodes_out = 0 }
  | rev ->
      let missing = Array.of_list (List.rev rev) in
      let fused = Fused.compile missing in
      let scratch = Domain.DLS.get data.fused_scratch_key in
      let columns = Fused.eval_columns fused ~scratch ~columns:dense_columns ~n:data.n in
      let per_shard_limit = Stdlib.max 1 (data.cache_limit / shard_count) in
      Array.iteri
        (fun k basis ->
          let shard = shard_of data basis in
          Mutex.lock shard.lock;
          (* The fused evaluation stands in for the per-basis miss path. *)
          shard.misses <- shard.misses + 1;
          if Compiled.Tbl.length shard.table >= per_shard_limit then begin
            shard.evictions <- shard.evictions + Compiled.Tbl.length shard.table;
            Compiled.Tbl.reset shard.table
          end;
          if not (Compiled.Tbl.mem shard.table basis) then
            Compiled.Tbl.add shard.table basis columns.(k);
          Mutex.unlock shard.lock)
        missing;
      let nodes_in, nodes_out = record_fusion fused in
      { fused_bases = Array.length missing; nodes_in; nodes_out }

let probe_many data bases ~indices =
  (* Probes touch a handful of samples, so they never fill the column
     cache, and they evaluate at the probe indices only whether or not a
     column is cached.  The values equal the memoized columns' entries bit
     for bit, so fingerprints do not depend on cache state. *)
  match data.storage with
  | Dense columns -> Fused.eval_probe (Fused.compile bases) ~columns ~indices
  | Chunked src ->
      let gathered = src.src_gather indices in
      Fused.eval_probe (Fused.compile bases) ~columns:gathered
        ~indices:(identity_indices indices)

(* --- dot products -------------------------------------------------------- *)

let dot_product n a b =
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let dot_shard_entries shard = Pair_tbl.length shard.pairs + Target_tbl.length shard.target_dots

(* Drop the whole shard once the pair + target tables together exceed the
   per-shard budget — same wholesale policy as the column cache. *)
let trim_dot_shard data shard =
  let per_shard_limit = Stdlib.max 1 (data.dot_cache_limit / shard_count) in
  if dot_shard_entries shard >= per_shard_limit then begin
    shard.dot_evictions <- shard.dot_evictions + dot_shard_entries shard;
    Pair_tbl.reset shard.pairs;
    Target_tbl.reset shard.target_dots
  end

let pair_shard data key = data.dot_shards.(Pair_key.hash key land (shard_count - 1))
let target_shard data key = data.dot_shards.(Target_key.hash key land (shard_count - 1))

let find_pair data key =
  let shard = pair_shard data key in
  Mutex.lock shard.dot_lock;
  let found = Pair_tbl.find_opt shard.pairs key in
  (match found with
  | Some _ -> shard.dot_hits <- shard.dot_hits + 1
  | None -> shard.dot_misses <- shard.dot_misses + 1);
  Mutex.unlock shard.dot_lock;
  found

let store_pair data key value =
  let shard = pair_shard data key in
  Mutex.lock shard.dot_lock;
  trim_dot_shard data shard;
  if not (Pair_tbl.mem shard.pairs key) then Pair_tbl.add shard.pairs key value;
  Mutex.unlock shard.dot_lock

let find_target data key =
  let shard = target_shard data key in
  Mutex.lock shard.dot_lock;
  let found = Target_tbl.find_opt shard.target_dots key in
  (match found with
  | Some _ -> shard.dot_hits <- shard.dot_hits + 1
  | None -> shard.dot_misses <- shard.dot_misses + 1);
  Mutex.unlock shard.dot_lock;
  found

let store_target data key value =
  let shard = target_shard data key in
  Mutex.lock shard.dot_lock;
  trim_dot_shard data shard;
  if not (Target_tbl.mem shard.target_dots key) then Target_tbl.add shard.target_dots key value;
  Mutex.unlock shard.dot_lock

(* Streamed products carry one scalar accumulator across chunk boundaries
   in row order, so every one of them reproduces the dense sequential
   [dot_product] to the last bit (same additions, same order).  Pair dots
   evaluate both bases through one fused tape per chunk; a two-root tape
   gives the same IEEE words as the one-root tapes the dense path's
   columns come from (§7h). *)
let chunked_dot data src b1 b2 =
  let fused = Fused.compile [| b1; b2 |] in
  let scratch = Domain.DLS.get data.fused_scratch_key in
  let out = Array.init 2 (fun _ -> Array.make src.src_chunk_rows 0.) in
  let acc = ref 0. in
  src.src_iter (fun ~row0:_ ~len columns ->
      Fused.eval_columns_into fused ~scratch ~columns ~n:len ~out;
      let a = out.(0) and b = out.(1) in
      for r = 0 to len - 1 do
        acc := !acc +. (a.(r) *. b.(r))
      done);
  !acc

let chunked_dot_target data src basis targets =
  let acc = ref 0. in
  iter_chunk_values data src basis (fun ~row0 ~len values ->
      for r = 0 to len - 1 do
        acc := !acc +. (values.(r) *. targets.(row0 + r))
      done);
  !acc

(* ⟨col, 1⟩ with the multiplication by 1. spelled out: the dense path dots
   the column against a literal ones vector, and bit-identity of the two
   paths is part of the determinism contract. *)
let chunked_column_sum data src basis =
  let acc = ref 0. in
  iter_chunk_values data src basis (fun ~row0:_ ~len values ->
      for r = 0 to len - 1 do
        acc := !acc +. (values.(r) *. 1.)
      done);
  !acc

let dot data b1 b2 =
  let key = (b1, b2) in
  match find_pair data key with
  | Some value -> value
  | None ->
      let value =
        match data.storage with
        | Dense _ -> dot_product data.n (basis_column data b1) (basis_column data b2)
        | Chunked src -> chunked_dot data src b1 b2
      in
      store_pair data key value;
      value

(* Target arrays are identified physically: the search and SAG pass the
   same array on every fit of a run, so the registry stays tiny (one entry
   per modeled performance, plus the internal ones vector). *)
let target_id data targets =
  Mutex.lock data.targets_lock;
  let id =
    match List.find_opt (fun (arr, _) -> arr == targets) data.registered_targets with
    | Some (_, id) -> id
    | None ->
        let id = data.next_target_id in
        data.next_target_id <- id + 1;
        data.registered_targets <- (targets, id) :: data.registered_targets;
        id
  in
  Mutex.unlock data.targets_lock;
  id

let dot_target data basis ~targets =
  if Array.length targets <> data.n then invalid_arg "Dataset.dot_target: length mismatch";
  let key = (basis, target_id data targets) in
  match find_target data key with
  | Some value -> value
  | None ->
      let value =
        match data.storage with
        | Dense _ -> dot_product data.n (basis_column data basis) targets
        | Chunked src -> chunked_dot_target data src basis targets
      in
      store_target data key value;
      value

let column_sum data basis =
  match data.storage with
  | Dense _ -> dot_target data basis ~targets:data.ones
  | Chunked src -> (
      (* Target id 0 is the ones vector; on chunked storage that vector is
         only notional (never allocated at full length). *)
      let key = (basis, 0) in
      match find_target data key with
      | Some value -> value
      | None ->
          let value = chunked_column_sum data src basis in
          store_target data key value;
          value)

(* --- one-pass Gram accumulation (streaming fits) -------------------------- *)

module Gram_stream = Caffeine_regress.Gram_stream
module Stats = Caffeine_util.Stats

type gram = {
  dots : float array array;  (* k x k, symmetric, fully populated *)
  dot_ys : float array;
  col_sums : float array;
  finite_bases : bool array;
}

let find_finite data basis =
  Mutex.lock data.finite_lock;
  let found = Compiled.Tbl.find_opt data.finite_table basis in
  Mutex.unlock data.finite_lock;
  found

let store_finite data basis value =
  Mutex.lock data.finite_lock;
  if Compiled.Tbl.length data.finite_table >= data.cache_limit then
    Compiled.Tbl.reset data.finite_table;
  if not (Compiled.Tbl.mem data.finite_table basis) then
    Compiled.Tbl.add data.finite_table basis value;
  Mutex.unlock data.finite_lock

let gram data bases ~targets =
  if Array.length targets <> data.n then invalid_arg "Dataset.gram: target length mismatch";
  let k = Array.length bases in
  if k = 0 then { dots = [||]; dot_ys = [||]; col_sums = [||]; finite_bases = [||] }
  else
    match data.storage with
    | Dense _ ->
        (* Dense storage assembles from the memoized single-product API —
           same cache, same values the streaming path would produce. *)
        {
          dots =
            Array.init k (fun i -> Array.init k (fun j -> dot data bases.(i) bases.(j)));
          dot_ys = Array.init k (fun i -> dot_target data bases.(i) ~targets);
          col_sums = Array.init k (fun i -> column_sum data bases.(i));
          finite_bases =
            Array.init k (fun i -> Stats.is_finite_array (basis_column data bases.(i)));
        }
    | Chunked src ->
        let tid = target_id data targets in
        let dots = Array.make_matrix k k Float.nan in
        let dot_ys = Array.make k Float.nan in
        let col_sums = Array.make k Float.nan in
        let finite_bases = Array.make k true in
        let missing_dot = Array.make_matrix k k false in
        let missing_dot_y = Array.make k false in
        let missing_sum = Array.make k false in
        let missing_finite = Array.make k false in
        (* Which entries the caches already hold; any gap marks every basis
           it involves for the evaluation pass. *)
        let needed = Array.make k false in
        for i = 0 to k - 1 do
          (match find_target data (bases.(i), tid) with
          | Some v -> dot_ys.(i) <- v
          | None ->
              missing_dot_y.(i) <- true;
              needed.(i) <- true);
          (match find_target data (bases.(i), 0) with
          | Some v -> col_sums.(i) <- v
          | None ->
              missing_sum.(i) <- true;
              needed.(i) <- true);
          (match find_finite data bases.(i) with
          | Some v -> finite_bases.(i) <- v
          | None ->
              missing_finite.(i) <- true;
              needed.(i) <- true);
          for j = i to k - 1 do
            match find_pair data (bases.(i), bases.(j)) with
            | Some v ->
                dots.(i).(j) <- v;
                dots.(j).(i) <- v
            | None ->
                missing_dot.(i).(j) <- true;
                needed.(i) <- true;
                needed.(j) <- true
          done
        done;
        let needed_idx =
          let rev = ref [] in
          for i = k - 1 downto 0 do
            if needed.(i) then rev := i :: !rev
          done;
          Array.of_list !rev
        in
        if Array.length needed_idx > 0 then begin
          (* One pass over the data: evaluate every needed basis through a
             fused tape per chunk and advance all accumulators.  The full
             sub-Gram of the needed set is accumulated (a missing (i, j)
             needs both columns in the pass anyway); cached entries keep
             their cached value — recomputation would reproduce it bit for
             bit, so nothing is overwritten either way. *)
          let acc = Gram_stream.create (Array.length needed_idx) in
          let fused = Fused.compile (Array.map (fun i -> bases.(i)) needed_idx) in
          let scratch = Domain.DLS.get data.fused_scratch_key in
          let out =
            Array.init (Array.length needed_idx) (fun _ -> Array.make src.src_chunk_rows 0.)
          in
          src.src_iter (fun ~row0 ~len columns ->
              Fused.eval_columns_into fused ~scratch ~columns ~n:len ~out;
              Gram_stream.update acc ~columns:out ~targets ~row0 ~len);
          let pos = Array.make k (-1) in
          Array.iteri (fun p i -> pos.(i) <- p) needed_idx;
          for i = 0 to k - 1 do
            if missing_dot_y.(i) then begin
              dot_ys.(i) <- Gram_stream.dot_y acc pos.(i);
              store_target data (bases.(i), tid) dot_ys.(i)
            end;
            if missing_sum.(i) then begin
              col_sums.(i) <- Gram_stream.col_sum acc pos.(i);
              store_target data (bases.(i), 0) col_sums.(i)
            end;
            if missing_finite.(i) then begin
              finite_bases.(i) <- Gram_stream.finite acc pos.(i);
              store_finite data bases.(i) finite_bases.(i)
            end;
            for j = i to k - 1 do
              if missing_dot.(i).(j) then begin
                let v = Gram_stream.dot acc pos.(i) pos.(j) in
                dots.(i).(j) <- v;
                dots.(j).(i) <- v;
                store_pair data (bases.(i), bases.(j)) v
              end
            done
          done
        end;
        { dots; dot_ys; col_sums; finite_bases }

let iter_basis_chunks data bases ~f =
  if Array.length bases = 0 then invalid_arg "Dataset.iter_basis_chunks: no bases";
  match data.storage with
  | Dense _ ->
      (* One "chunk" covering the whole dataset, from memoized columns. *)
      f ~row0:0 ~len:data.n (Array.map (basis_column data) bases)
  | Chunked src ->
      let fused = Fused.compile bases in
      let scratch = Domain.DLS.get data.fused_scratch_key in
      let out = Array.init (Array.length bases) (fun _ -> Array.make src.src_chunk_rows 0.) in
      src.src_iter (fun ~row0 ~len columns ->
          Fused.eval_columns_into fused ~scratch ~columns ~n:len ~out;
          f ~row0 ~len out)

(* --- cache management ----------------------------------------------------- *)

let cached_columns data =
  Array.fold_left
    (fun acc shard ->
      Mutex.lock shard.lock;
      let count = Compiled.Tbl.length shard.table in
      Mutex.unlock shard.lock;
      acc + count)
    0 data.shards

let stats data =
  let columns_cached = ref 0
  and column_hits = ref 0
  and column_misses = ref 0
  and column_evictions = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      columns_cached := !columns_cached + Compiled.Tbl.length shard.table;
      column_hits := !column_hits + shard.hits;
      column_misses := !column_misses + shard.misses;
      column_evictions := !column_evictions + shard.evictions;
      Mutex.unlock shard.lock)
    data.shards;
  let dots_cached = ref 0
  and dot_hits = ref 0
  and dot_misses = ref 0
  and dot_evictions = ref 0 in
  Array.iter
    (fun shard ->
      Mutex.lock shard.dot_lock;
      dots_cached := !dots_cached + dot_shard_entries shard;
      dot_hits := !dot_hits + shard.dot_hits;
      dot_misses := !dot_misses + shard.dot_misses;
      dot_evictions := !dot_evictions + shard.dot_evictions;
      Mutex.unlock shard.dot_lock)
    data.dot_shards;
  {
    columns_cached = !columns_cached;
    column_hits = !column_hits;
    column_misses = !column_misses;
    column_evictions = !column_evictions;
    dots_cached = !dots_cached;
    dot_hits = !dot_hits;
    dot_misses = !dot_misses;
    dot_evictions = !dot_evictions;
  }

(* Gauges, not counters: {!stats} is a point-in-time aggregate over the
   shards, so each publication overwrites the previous snapshot. *)
let g_columns_cached = Metrics.gauge Metrics.default "dataset.columns_cached"
let g_column_hits = Metrics.gauge Metrics.default "dataset.column_hits"
let g_column_misses = Metrics.gauge Metrics.default "dataset.column_misses"
let g_column_evictions = Metrics.gauge Metrics.default "dataset.column_evictions"
let g_dots_cached = Metrics.gauge Metrics.default "dataset.dots_cached"
let g_dot_hits = Metrics.gauge Metrics.default "dataset.dot_hits"
let g_dot_misses = Metrics.gauge Metrics.default "dataset.dot_misses"
let g_dot_evictions = Metrics.gauge Metrics.default "dataset.dot_evictions"

let publish_metrics data =
  let s = stats data in
  Metrics.set_gauge g_columns_cached (float_of_int s.columns_cached);
  Metrics.set_gauge g_column_hits (float_of_int s.column_hits);
  Metrics.set_gauge g_column_misses (float_of_int s.column_misses);
  Metrics.set_gauge g_column_evictions (float_of_int s.column_evictions);
  Metrics.set_gauge g_dots_cached (float_of_int s.dots_cached);
  Metrics.set_gauge g_dot_hits (float_of_int s.dot_hits);
  Metrics.set_gauge g_dot_misses (float_of_int s.dot_misses);
  Metrics.set_gauge g_dot_evictions (float_of_int s.dot_evictions)

let clear_cache data =
  Array.iter
    (fun shard ->
      Mutex.lock shard.lock;
      Compiled.Tbl.reset shard.table;
      Mutex.unlock shard.lock)
    data.shards;
  Array.iter
    (fun shard ->
      Mutex.lock shard.dot_lock;
      Pair_tbl.reset shard.pairs;
      Target_tbl.reset shard.target_dots;
      Mutex.unlock shard.dot_lock)
    data.dot_shards;
  Mutex.lock data.finite_lock;
  Compiled.Tbl.reset data.finite_table;
  Mutex.unlock data.finite_lock

let cache_limit data = data.cache_limit

let set_cache_limit data limit =
  if limit < 1 then invalid_arg "Dataset.set_cache_limit: limit must be positive";
  data.cache_limit <- limit

let dot_cache_limit data = data.dot_cache_limit

let set_dot_cache_limit data limit =
  if limit < 1 then invalid_arg "Dataset.set_dot_cache_limit: limit must be positive";
  data.dot_cache_limit <- limit
