module Model = Caffeine.Model
module Model_io = Caffeine.Model_io
module Fused = Caffeine_expr.Fused
module Metrics = Caffeine_obs.Metrics

type front = {
  path : string;
  var_names : string array;
  models : Model.t array;
  fused : Fused.t;
  mtime : float;
  size : int;
  generation : int;
}

type t = {
  wb : float;
  wvc : float;
  current : front Atomic.t;
  m_reloads : Metrics.counter;
  m_reload_failures : Metrics.counter;
}

let load_front ~path ~wb ~wvc =
  match Unix.stat path with
  | exception Unix.Unix_error (code, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message code))
  | stat -> (
      match Model_io.load ~path ~wb ~wvc with
      | Error msg -> Error msg
      | Ok (_, []) -> Error (Printf.sprintf "%s: no models in file" path)
      | Ok (var_names, models) ->
          let models = Array.of_list models in
          (* Fused model roots match [Model.predict] bit for bit. *)
          let fused = Fused.compile_wsums (Array.map Model.to_wsum models) in
          Ok
            {
              path;
              var_names;
              models;
              fused;
              mtime = stat.Unix.st_mtime;
              size = stat.Unix.st_size;
              generation = 0;
            })

let create ?(metrics = Metrics.default) ~path ~wb ~wvc () =
  match load_front ~path ~wb ~wvc with
  | Error _ as error -> error
  | Ok front ->
      Ok
        {
          wb;
          wvc;
          current = Atomic.make front;
          m_reloads = Metrics.counter metrics "serve.reloads";
          m_reload_failures = Metrics.counter metrics "serve.reload_failures";
        }

let current t = Atomic.get t.current

let check_reload t =
  let serving = Atomic.get t.current in
  match Unix.stat serving.path with
  | exception Unix.Unix_error (code, _, _) ->
      Metrics.incr t.m_reload_failures;
      `Failed (Printf.sprintf "%s: %s" serving.path (Unix.error_message code))
  | stat ->
      if stat.Unix.st_mtime = serving.mtime && stat.Unix.st_size = serving.size then `Unchanged
      else (
        match load_front ~path:serving.path ~wb:t.wb ~wvc:t.wvc with
        | Error msg ->
            (* The fresh file is unreadable or malformed: keep serving the
               front already compiled — never a half-loaded state. *)
            Metrics.incr t.m_reload_failures;
            `Failed msg
        | Ok fresh ->
            Atomic.set t.current { fresh with generation = serving.generation + 1 };
            Metrics.incr t.m_reloads;
            `Reloaded)

let reloads t = Metrics.counter_value t.m_reloads
let reload_failures t = Metrics.counter_value t.m_reload_failures
