(* The serving side of the benchmark: request sequences drawn from the
   seed, the expected response of every request (built from
   [Model.predict] of the loaded front), and three ways to drive one
   sequence — over a socket to a [caffeine serve] child, in-process
   through [Server.handle_line], and in-process with every layer timed. *)

module Ota = Caffeine_ota.Ota
module Dataset = Caffeine_io.Dataset
module Fused = Caffeine_expr.Fused
module Json = Caffeine_obs.Json
module Model = Caffeine.Model
module Model_io = Caffeine.Model_io
module Export = Caffeine.Export
module Registry = Caffeine_serve.Registry
module Server = Caffeine_serve.Server

let wb = 10.
let wvc = 0.25

type kind =
  | Predict of int array  (** test-set row indices *)
  | Front
  | Explain of int * string  (** model index, language *)

type step =
  | Rewrite of int  (** install front [k] over the served file *)
  | Request of kind

(* One front as the server sees it: the exact file bytes, the models as
   [Model_io.load] reads them back, and their predictions on every test
   row. *)
type front_file = {
  content : string;
  models : Model.t array;
  reference : float array array;  (** [model][test row] *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path content = Out_channel.with_open_bin path (fun oc -> output_string oc content)

let prepare_fronts ~dir ~test_inputs fronts =
  let test = Dataset.of_rows ~var_names:Ota.var_names test_inputs in
  Array.of_list
    (List.mapi
       (fun k front ->
         let path = Filename.concat dir (Printf.sprintf "stage-%d.models" k) in
         Model_io.save ~path ~var_names:Ota.var_names front;
         let content = read_file path in
         let models =
           match Model_io.load ~path ~wb ~wvc with
           | Ok (_, models) -> Array.of_list models
           | Error msg -> failwith msg
         in
         Sys.remove path;
         { content; models; reference = Array.map (fun m -> Model.predict m test) models })
       fronts)

let served_path dir = Filename.concat dir "front.models"

(* Atomic replacement: the server never sees a half-written file. *)
let install ~dir (f : front_file) =
  let tmp = served_path dir ^ ".tmp" in
  write_file tmp f.content;
  Sys.rename tmp (served_path dir)

let request_line ~test_inputs = function
  | Predict rows ->
      let b = Buffer.create (32 + (Array.length rows * 13 * 24)) in
      Buffer.add_string b "{\"op\":\"predict\",\"rows\":[";
      Array.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          Array.iteri
            (fun v x ->
              if v > 0 then Buffer.add_char b ',';
              Json.add_float b x)
            test_inputs.(r);
          Buffer.add_char b ']')
        rows;
      Buffer.add_string b "]}";
      Buffer.contents b
  | Front -> "{\"op\":\"front\"}"
  | Explain (index, language) ->
      Printf.sprintf "{\"op\":\"explain\",\"index\":%d,\"language\":\"%s\"}" index language

(* The response a correct server sends, byte for byte ([Front] answers
   carry a path and are checked field by field instead). *)
let expected_response (f : front_file) = function
  | Predict rows ->
      let models = Array.length f.models in
      let b = Buffer.create (64 + (models * Array.length rows * 24)) in
      Printf.bprintf b "{\"ok\":true,\"models\":%d,\"rows\":%d,\"outputs\":[" models
        (Array.length rows);
      Array.iteri
        (fun k column ->
          if k > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          Array.iteri
            (fun i r ->
              if i > 0 then Buffer.add_char b ',';
              Json.add_float b column.(r))
            rows;
          Buffer.add_char b ']')
        f.reference;
      Buffer.add_string b "]}";
      Some (Buffer.contents b)
  | Explain (index, language) ->
      let m = f.models.(index) in
      let name = Printf.sprintf "model_%d" index in
      let code =
        match language with
        | "c" -> Export.to_c ~name ~var_names:Ota.var_names m
        | _ -> Model.to_string ~var_names:Ota.var_names m
      in
      let b = Buffer.create 256 in
      Printf.bprintf b "{\"ok\":true,\"index\":%d,\"language\":" index;
      Json.add_string b language;
      Buffer.add_string b ",\"code\":";
      Json.add_string b code;
      Buffer.add_char b '}';
      Some (Buffer.contents b)
  | Front -> None

let front_matches (f : front_file) ~generation response =
  match Json.parse response with
  | Ok (Json.Obj fields) -> (
      try
        List.assoc_opt "ok" fields = Some (Json.Bool true)
        && Json.int_of fields "generation" = generation
        && Json.int_of fields "models" = Array.length f.models
      with Json.Parse_error _ -> false)
  | _ -> false

let correct f ~generation kind response =
  match expected_response f kind with
  | Some expected -> String.equal expected response
  | None -> front_matches f ~generation response

(* {2 Request sequences} *)

(* The request mix, as a fixed sequence of [windows] windows of [window]
   requests.  Window j starts with a rewrite to front [j mod fronts]; its
   first request is a 1-row predict (its latency is the reload latency)
   and its second asks for the front, to check the new generation.  The
   other requests are 85% 1-row predicts, 10% 16-row and 3% 256-row
   batches, 1.5% explain and 0.5% front calls.  These shares are assumed,
   not taken from observed traffic: the repository has no request log,
   and its other serving checks send one whole-set batch.

   The kinds come from a fixed stream, so every seed sends the same
   shapes to the same fronts and the serving cost does not depend on the
   seed; [seed] draws the test rows the predicts carry.  With [windows]
   a multiple of the front count, a sequence ends on the last front and
   starts with a rewrite away from it, so back-to-back replays of one
   sequence are identical: the serving session starts on the last front
   ([initial]). *)
let mix_sequence ~seed ~windows ~window ~test_rows (fronts : front_file array) =
  let n_fronts = Array.length fronts in
  if windows mod n_fronts <> 0 then invalid_arg "Serving.mix_sequence: windows mod fronts";
  let kinds = Random.State.make [| 0x5e7e |] and row_draws = Random.State.make [| seed; 0x5e7e |] in
  let rows n = Array.init n (fun _ -> Random.State.int row_draws test_rows) in
  let draw served =
    let u = Random.State.float kinds 1. in
    if u < 0.03 then Predict (rows 256)
    else if u < 0.13 then Predict (rows 16)
    else if u < 0.145 then
      Explain
        ( Random.State.int kinds (Array.length fronts.(served).models),
          if Random.State.bool kinds then "text" else "c" )
    else if u < 0.15 then Front
    else Predict (rows 1)
  in
  Array.of_list
    (List.concat
       (List.init windows (fun j ->
            let served = j mod n_fronts in
            Rewrite served
            :: Request (Predict (rows 1))
            :: Request Front
            :: List.init (window - 2) (fun _ -> Request (draw served)))))

let initial (fronts : front_file array) = Array.length fronts - 1

(* {2 Driving a sequence} *)

(* One pass over a sequence: [latency_ns.(i)] is the latency of the i-th
   request, [digests] every response, newest first. *)
type pass = {
  attempted : int;
  failed : int;
  latency_ns : int array;
  digests : Digest.t list;
}

(* Where requests go and how a rewrite reaches the server.
   [generation ()] is the generation a [front] response must report
   now. *)
type session = {
  rewrite : int -> unit;
  send : kind -> string -> string;
  generation : unit -> int;
}

let requests steps =
  List.filter_map (function Request k -> Some k | Rewrite _ -> None) (Array.to_list steps)

(* Send every request of [steps] in order, checking every response
   against the front being served. *)
let drive ~test_inputs ~(fronts : front_file array) session steps =
  let n = List.length (requests steps) in
  let latency_ns = Array.make n 0 in
  let served = ref (initial fronts) and i = ref 0 and failed = ref 0 and digests = ref [] in
  Array.iter
    (function
      | Rewrite k ->
          session.rewrite k;
          served := k
      | Request kind ->
          let line = request_line ~test_inputs kind in
          let start = Layers.now () in
          let response = session.send kind line in
          latency_ns.(!i) <- Layers.now () - start;
          incr i;
          if not (correct fronts.(!served) ~generation:(session.generation ()) kind response) then
            incr failed;
          digests := Digest.string response :: !digests)
    steps;
  { attempted = n; failed = !failed; latency_ns; digests = !digests }

(* What the latencies of a sequence's requests measure: the rows × models
   a predict serves, and whether it is the first request after a
   rewrite (a reload sample). *)
type sample = Timed_predict of int | Reload | Other

let samples ~(fronts : front_file array) steps =
  let served = ref (initial fronts) and after_rewrite = ref false in
  Array.to_list steps
  |> List.filter_map (function
       | Rewrite k ->
           served := k;
           after_rewrite := true;
           None
       | Request kind ->
           let sample =
             match kind with
             | Predict _ when !after_rewrite -> Reload
             | Predict rows ->
                 Timed_predict (Array.length rows * Array.length fronts.(!served).models)
             | Front | Explain _ -> Other
           in
           after_rewrite := false;
           Some sample)
  |> Array.of_list

let create_registry path =
  match Registry.create ~path ~wb ~wvc () with Error msg -> failwith msg | Ok r -> r

(* One request through [Server.handle_line], with the layers split out
   when [layers] is given: [Json.parse] and [Fused.eval_columns] on the
   served tape are timed as separate calls on the same inputs, and
   [server.self_s] is what [handle_line] spends beyond them. *)
let handle ?layers ~test_inputs ~scratch config registry kind line =
  match layers with
  | None -> Server.handle_line config line
  | Some (l : Layers.t) ->
      let h0 = Layers.now () in
      let response = Server.handle_line config line in
      let h1 = Layers.now () in
      ignore (Json.parse line : (Json.t, string) result);
      let p1 = Layers.now () in
      let eval_ns =
        match kind with
        | Predict rows ->
            let n = Array.length rows in
            let columns =
              Array.init (Array.length Ota.var_names) (fun v ->
                  Array.map (fun r -> test_inputs.(r).(v)) rows)
            in
            let fused = (Registry.current registry).Registry.fused in
            let e0 = Layers.now () in
            ignore (Fused.eval_columns fused ~scratch ~columns ~n : float array array);
            Layers.now () - e0
        | Front | Explain _ -> 0
      in
      l.Layers.json_decode_ns <- l.Layers.json_decode_ns + (p1 - h1);
      l.Layers.serve_eval_ns <- l.Layers.serve_eval_ns + eval_ns;
      l.Layers.server_self_ns <- l.Layers.server_self_ns + (h1 - h0) - (p1 - h1) - eval_ns;
      response

(* In-process hot reload, as [caffeine serve --reload] does it: rewrites
   replace the one served file, and the registry is polled before each
   request.  Traced, the poll is made explicitly and a poll that swaps in
   a front is timed as [registry.reload_s]. *)
let reloading ?layers ~dir ~test_inputs fronts =
  install ~dir fronts.(initial fronts);
  let registry = create_registry (served_path dir) in
  let config = Server.config ~reload:(Option.is_none layers) registry in
  let scratch = Fused.scratch () in
  let send kind line =
    (match layers with
    | None -> ()
    | Some (l : Layers.t) ->
        let r0 = Layers.now () in
        let reloaded = Registry.check_reload registry = `Reloaded in
        let elapsed = Layers.now () - r0 in
        if reloaded then begin
          l.Layers.reload_ns <- l.Layers.reload_ns + elapsed;
          l.Layers.reloads <- l.Layers.reloads + 1
        end
        else l.Layers.server_self_ns <- l.Layers.server_self_ns + elapsed);
    handle ?layers ~test_inputs ~scratch config registry kind line
  in
  let rewrites = ref 0 in
  {
    rewrite =
      (fun k ->
        incr rewrites;
        install ~dir fronts.(k));
    send;
    generation = (fun () -> !rewrites);
  }

(* In-process, one registry per front file: a rewrite loads the front
   afresh on the next request (timed as [registry.reload_s] when traced).
   The flow workloads switch fronts every 20 requests, faster than
   a file's mtime is sure to tick, so they do not rely on stat-based hot
   reload of one path. *)
let per_front ?layers ~dir ~test_inputs (fronts : front_file array) =
  let paths =
    Array.mapi
      (fun k (f : front_file) ->
        let path = Filename.concat dir (Printf.sprintf "front-%d.models" k) in
        write_file path f.content;
        path)
      fronts
  in
  let scratch = Fused.scratch () in
  let pending = ref (Some (initial fronts)) and current = ref None in
  let send kind line =
    (match !pending with
    | None -> ()
    | Some k ->
        pending := None;
        let r0 = Layers.now () in
        let registry = create_registry paths.(k) in
        (match layers with
        | None -> ()
        | Some (l : Layers.t) ->
            l.Layers.reload_ns <- l.Layers.reload_ns + (Layers.now () - r0);
            l.Layers.reloads <- l.Layers.reloads + 1);
        current := Some (Server.config registry, registry));
    let config, registry = Option.get !current in
    handle ?layers ~test_inputs ~scratch config registry kind line
  in
  { rewrite = (fun k -> pending := Some k); send; generation = (fun () -> 0) }

(* {2 The caffeine serve child} *)

let rec write_all fd s pos len =
  if len > 0 then
    match Unix.write_substring fd s pos len with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
    | n -> write_all fd s (pos + n) (len - n)

type client = { fd : Unix.file_descr; chunk : Bytes.t; acc : Buffer.t }

(* Closed loop, one request in flight: a response is complete when the
   bytes read so far end in a newline. *)
let socket_send client _kind line =
  let line = line ^ "\n" in
  write_all client.fd line 0 (String.length line);
  Buffer.clear client.acc;
  let rec read () =
    match Unix.read client.fd client.chunk 0 (Bytes.length client.chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
    | 0 -> failwith "serve: connection closed"
    | n ->
        Buffer.add_subbytes client.acc client.chunk 0 n;
        if Bytes.get client.chunk (n - 1) <> '\n' then read ()
  in
  read ();
  Buffer.sub client.acc 0 (Buffer.length client.acc - 1)

type child = { pid : int; client : client }

let socket_path dir = Filename.concat dir "serve.sock"

(* Spawn [cli serve --reload] on the served file (create_process, never
   fork) and connect once it listens. *)
let start_server ~cli ~dir =
  let sock = socket_path dir in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--front"; served_path dir; "--socket"; sock; "--reload" |]
      Unix.stdin log log
  in
  Unix.close log;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve: the server exited before listening");
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "serve: the server did not listen within 30 s"
        end;
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  { pid; client = { fd; chunk = Bytes.create 65536; acc = Buffer.create 65536 } }

(* Peak resident set of a process (VmHWM), in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
      List.fold_left
        (fun acc line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
          else acc)
        Float.nan (String.split_on_char '\n' text)

(* Graceful stop: close our end, SIGTERM (the server drains), reap. *)
let stop_server child =
  (try Unix.close child.client.fd with Unix.Unix_error _ -> ());
  (try Unix.kill child.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] child.pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | _ -> ()
  in
  reap ()

(* The child's session: rewrites replace the served file, which the
   server polls before each request. *)
let over_socket ~dir ~fronts child =
  let rewrites = ref 0 in
  {
    rewrite =
      (fun k ->
        incr rewrites;
        install ~dir fronts.(k));
    send = socket_send child.client;
    generation = (fun () -> !rewrites);
  }
