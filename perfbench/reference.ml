(* The host-speed reference.  The shared hosts this benchmark runs on
   switch between fast and slow states that last from seconds to
   minutes, and in a slow state the same fit takes up to twice as long.
   A run cannot choose its state, and a total over 30 s does not average
   it away: in eleven 30-second runs of identical fits, the mean fit
   time spread by 21% between its quartiles.  So every unit of work runs
   between two calls of this fixed kernel, and the times measured inside
   it are scaled by how fast the kernel ran: a time reads as it would on
   a host where one kernel call takes [nominal_ns].

   The kernel is the benchmark's own code, never the library's, so no
   change to the program moves it.  It mimics the program's profile:
   random expression trees, evaluated over 243-row columns,
   deduplicated by hash, a float sort, then string formatting and a
   string-keyed table.  Tiny arithmetic loops do not track the slow
   states; code with a large footprint like this does.  Over windows of
   ten fits, the mean kernel time correlated 0.97 with the mean fit
   time, and their ratio varied 3.6% where the fit time alone varied
   14%. *)

type tree =
  | Var of int
  | Const of float
  | Add of tree * tree
  | Mul of tree * tree
  | Div of tree * tree
  | Exp of tree
  | Log of tree

let rows = 243
let vars = 13

let rec random_tree st depth =
  if depth = 0 || Random.State.int st 4 = 0 then
    if Random.State.bool st then Var (Random.State.int st vars)
    else Const (Random.State.float st 2.)
  else
    let sub () = random_tree st (depth - 1) in
    match Random.State.int st 5 with
    | 0 -> Add (sub (), sub ())
    | 1 -> Mul (sub (), sub ())
    | 2 -> Div (sub (), sub ())
    | 3 -> Exp (sub ())
    | _ -> Log (sub ())

let rec eval columns = function
  | Var v -> columns.(v)
  | Const c -> Array.make rows c
  | Add (a, b) -> Array.map2 ( +. ) (eval columns a) (eval columns b)
  | Mul (a, b) -> Array.map2 ( *. ) (eval columns a) (eval columns b)
  | Div (a, b) -> Array.map2 (fun x y -> x /. (1. +. Float.abs y)) (eval columns a) (eval columns b)
  | Exp a -> Array.map (fun x -> Float.exp (Float.min x 5.)) (eval columns a)
  | Log a -> Array.map (fun x -> Float.log (1. +. Float.abs x)) (eval columns a)

let kernel () =
  let st = Random.State.make [| 42 |] in
  let columns =
    Array.init vars (fun v ->
        Array.init rows (fun i -> float_of_int (((i * 7) + (v * 13)) mod 97) /. 50.))
  in
  let seen = Hashtbl.create 512 and acc = ref 0. in
  for _ = 1 to 300 do
    let tree = random_tree st 6 in
    let h = Hashtbl.hash tree in
    if not (Hashtbl.mem seen h) then begin
      let column = eval columns tree in
      let energy = Array.fold_left (fun s x -> s +. (x *. x)) 0. column in
      Hashtbl.replace seen h energy;
      acc := !acc +. energy
    end;
    let objectives = Array.init 200 (fun _ -> Random.State.float st 1.) in
    Array.sort Float.compare objectives
  done;
  let table = Hashtbl.create 4096 and count = ref 0 in
  for i = 1 to 30_000 do
    let key = Printf.sprintf "k%d-%s" (i land 4095) (string_of_float (float_of_int i /. 7.)) in
    match Hashtbl.find_opt table key with
    | Some n -> count := !count + n
    | None -> Hashtbl.replace table key (String.length key)
  done;
  (!acc, !count)

(* One kernel call on the 2-core x86-64 virtual host the benchmark was
   built on, in its fast state. *)
let nominal_ns = 40_000_000

(* The kernel samples of one phase of a run.  With [domains] > 1 a
   sample runs the kernel on that many domains at once, for work that
   runs on that many domains: a parallel search depends on the speed of
   every core it uses. *)
type t = { domains : int; mutable last : int option; mutable scales : float list }

let create ?(domains = 1) () = { domains; last = None; scales = [] }

let sample t =
  let start = Layers.now () in
  let others = List.init (t.domains - 1) (fun _ -> Domain.spawn kernel) in
  ignore (Sys.opaque_identity (kernel ()));
  List.iter (fun d -> ignore (Sys.opaque_identity (Domain.join d))) others;
  let ns = Layers.now () - start in
  t.last <- Some ns;
  ns

(* The first call of a process warms code and allocator. *)
let warm () = ignore (Sys.opaque_identity (kernel ()))

(* Run [f] between two kernel samples (the one after the previous unit
   of the phase serves as the one before) and return its result and the
   scale that turns times measured inside it into reference-host times:
   [nominal_ns] ÷ the mean of the two samples.  Call it only on the main
   domain, while no pool domain works. *)
let around t f =
  let before = match t.last with Some ns -> ns | None -> sample t in
  let result = f () in
  let after = sample t in
  let scale = 2. *. float_of_int nominal_ns /. float_of_int (before + after) in
  t.scales <- scale :: t.scales;
  (result, scale)

(* Drop the phase's last sample when other work has run since its last
   unit: the next unit then starts with a fresh one. *)
let restart t = t.last <- None

(* The mean scale of the phase's units, for the raw report. *)
let mean_scale t =
  List.fold_left ( +. ) 0. t.scales /. float_of_int (Stdlib.max 1 (List.length t.scales))
