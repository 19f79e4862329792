type backend =
  | Seq
  | Domains

let backend_name = function Seq -> "seq" | Domains -> "domains"

let backend_of_string = function
  | "seq" -> Ok Seq
  | "domains" -> Ok Domains
  | other -> Error (Printf.sprintf "unknown backend %S (expected seq or domains)" other)

type t = {
  pool : Pool.t option;
  owned : bool;  (* [shutdown] releases the pool only if we spawned it *)
}

let sequential = { pool = None; owned = false }

let create ?jobs backend =
  match backend with
  | Seq -> sequential
  | Domains ->
      let jobs = Pool.effective_jobs (match jobs with Some j -> j | None -> 0) in
      let pool = if jobs > 1 then Some (Pool.create ~jobs ()) else None in
      { pool; owned = Option.is_some pool }

let of_pool pool = { pool = Some pool; owned = false }

let shutdown t = if t.owned then Option.iter Pool.shutdown t.pool

let with_executor ?jobs backend f =
  let t = create ?jobs backend in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let jobs t = match t.pool with Some pool -> Pool.jobs pool | None -> 1
let pool t = t.pool

let map t f input =
  match t.pool with Some pool -> Pool.parallel_map pool f input | None -> Array.map f input

let init t n f =
  match t.pool with
  | Some pool -> Pool.parallel_init pool n f
  | None ->
      if n < 0 then invalid_arg "Executor.init: negative length";
      Array.init n f
