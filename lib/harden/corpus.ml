(* DIMACS corpus runner: every answer cross-checked, every instance
   timed, nothing trusted (docs/HARDENING.md). *)

module L = Sat.Lit
module Metrics = Util.Metrics

let m_instances = Metrics.counter "harden.corpus.instances"
let m_sat = Metrics.counter "harden.corpus.sat"
let m_unsat = Metrics.counter "harden.corpus.unsat"
let m_timeouts = Metrics.counter "harden.corpus.timeouts"
let m_failures = Metrics.counter "harden.corpus.failures"
let m_solve_us = Metrics.histogram "harden.corpus.solve_us"
let m_conflicts = Metrics.counter "harden.corpus.conflicts"

type opts = {
  config_name : string;
  config : Sat.Solver.config;
  preprocess : bool;
  timeout_s : float;
  certify : bool;
}

let default_opts =
  {
    config_name = "default";
    config = Sat.Solver.default_config;
    preprocess = true;
    timeout_s = 5.0;
    certify = true;
  }

type outcome =
  | Sat_ok
  | Unsat_ok
  | Timeout
  | Failed of string

type instance = {
  name : string;
  outcome : outcome;
  time_s : float;
  conflicts : int;
}

type report = {
  opts : opts;
  instances : instance list;
  sat : int;
  unsat : int;
  timeouts : int;
  failures : int;
}

let outcome_label = function
  | Sat_ok -> "SAT"
  | Unsat_ok -> "UNSAT"
  | Timeout -> "TIMEOUT"
  | Failed _ -> "FAILED"

(* A model must satisfy every original clause — not the simplified
   ones: this is what catches preprocessor model-reconstruction bugs as
   well as solver bugs. *)
let model_satisfies model clauses =
  let sat_lit l =
    let v = L.var l in
    v < Array.length model && model.(v) = L.sign l
  in
  let rec find_falsified i = function
    | [] -> None
    | c :: rest ->
      if List.exists sat_lit c then find_falsified (i + 1) rest else Some i
  in
  find_falsified 0 clauses

let solve_instance opts ~name (cnf : Gen.cnf) =
  Metrics.incr m_instances;
  let t0 = Unix.gettimeofday () in
  let finish outcome conflicts =
    let time_s = Unix.gettimeofday () -. t0 in
    Metrics.observe m_solve_us (time_s *. 1e6);
    Metrics.add m_conflicts conflicts;
    (match outcome with
    | Sat_ok -> Metrics.incr m_sat
    | Unsat_ok -> Metrics.incr m_unsat
    | Timeout -> Metrics.incr m_timeouts
    | Failed _ -> Metrics.incr m_failures);
    { name; outcome; time_s; conflicts }
  in
  let pre =
    if opts.preprocess then
      Some
        (Sat.Preprocess.simplify ~drat:opts.certify ~nvars:cnf.nvars
           ~frozen:(fun _ -> false) cnf.clauses)
    else None
  in
  let solver = Sat.Solver.create ~config:opts.config () in
  if opts.certify then Sat.Solver.enable_proof_logging solver;
  Sat.Solver.ensure_vars solver cnf.nvars;
  (match pre with
  | Some p -> Sat.Preprocess.load p solver
  | None -> List.iter (Sat.Solver.add_clause solver) cnf.clauses);
  match Sat.Solver.solve_with_timeout ~timeout_s:opts.timeout_s solver with
  | None -> finish Timeout (Sat.Solver.stats solver).Sat.Solver.conflicts
  | Some result ->
    let conflicts = (Sat.Solver.stats solver).Sat.Solver.conflicts in
    (match result with
    | Sat.Solver.Sat ->
      let model = Sat.Solver.model solver in
      let model =
        match pre with
        | Some p -> Sat.Preprocess.extend_model p model
        | None -> model
      in
      (match model_satisfies model cnf.clauses with
      | None -> finish Sat_ok conflicts
      | Some i ->
        finish
          (Failed (Printf.sprintf "model falsifies original clause %d" i))
          conflicts)
    | Sat.Solver.Unsat ->
      if not opts.certify then finish Unsat_ok conflicts
      else (
        match
          Sat.Drat.check ~nvars:cnf.nvars ~original:cnf.clauses
            ~proof:(Sat.Solver.proof solver)
        with
        | Ok () -> finish Unsat_ok conflicts
        | Error e ->
          finish (Failed ("DRAT certification failed: " ^ e)) conflicts))

let report_of_instances opts instances =
  let count p = List.length (List.filter p instances) in
  {
    opts;
    instances;
    sat = count (fun i -> i.outcome = Sat_ok);
    unsat = count (fun i -> i.outcome = Unsat_ok);
    timeouts = count (fun i -> i.outcome = Timeout);
    failures =
      count (fun i -> match i.outcome with Failed _ -> true | _ -> false);
  }

let run_list opts named =
  report_of_instances opts
    (List.map (fun (name, cnf) -> solve_instance opts ~name cnf) named)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_dir opts dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cnf")
    |> List.sort String.compare
  in
  if files = [] then
    invalid_arg (Printf.sprintf "Corpus.run_dir: no .cnf files in %s" dir);
  report_of_instances opts
    (List.map
       (fun file ->
         let path = Filename.concat dir file in
         match Gen.of_dimacs (read_file path) with
         | cnf -> solve_instance opts ~name:file cnf
         | exception (Sat.Dimacs.Parse_error _ as e) ->
           Metrics.incr m_instances;
           Metrics.incr m_failures;
           {
             name = file;
             outcome = Failed ("parse error: " ^ Sat.Dimacs.error_message e);
             time_s = 0.0;
             conflicts = 0;
           })
       files)

(* Sorted per-instance timing lines, slowest last — the file the bench
   experiment plots ("cactus plot" input). *)
let timings report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# config=%s preprocess=%b timeout=%gs\n"
       report.opts.config_name report.opts.preprocess report.opts.timeout_s);
  List.stable_sort (fun a b -> Float.compare a.time_s b.time_s)
    report.instances
  |> List.iter (fun i ->
         Buffer.add_string buf
           (Printf.sprintf "%.6f %-7s %8d %s\n" i.time_s
              (outcome_label i.outcome) i.conflicts i.name));
  Buffer.contents buf

let pp_summary ppf report =
  Format.fprintf ppf
    "%d instance(s) [config %s, preprocess %b, timeout %gs]: %d SAT, %d \
     UNSAT, %d timeout(s), %d failure(s)"
    (List.length report.instances)
    report.opts.config_name report.opts.preprocess report.opts.timeout_s
    report.sat report.unsat report.timeouts report.failures;
  List.iter
    (fun i ->
      match i.outcome with
      | Failed msg -> Format.fprintf ppf "@.  FAILED %s: %s" i.name msg
      | _ -> ())
    report.instances
