module Vec = Util.Vec
module Metrics = Util.Metrics
module SymMap = Map.Make (Int)

(* The column indexes are the flat engine's own ({!Flatrel}), so their
   build and probe traffic belongs in the same eval.index.* series
   (docs/OBSERVABILITY.md); builds and entries tick inside [Flatrel]. *)
let m_index_probes = Metrics.counter "eval.index.probes"
let m_index_hits = Metrics.counter "eval.index.hits"

type t = { mutable rels : Flatrel.t SymMap.t }

let create () = { rels = SymMap.empty }

let of_relations rels =
  { rels = List.fold_left (fun m (p, rel) -> SymMap.add p rel m) SymMap.empty rels }

let relation t p = SymMap.find_opt p t.rels

let add t f =
  let p = Fact.pred f in
  let rel =
    match SymMap.find_opt p t.rels with
    | Some rel ->
      if Flatrel.arity rel <> Fact.arity f then
        invalid_arg
          (Printf.sprintf
             "Database.add: predicate %s has arity %d, but %s has arity %d"
             (Symbol.name p) (Flatrel.arity rel) (Fact.to_string f)
             (Fact.arity f));
      rel
    | None ->
      let rel = Flatrel.create ~arity:(Fact.arity f) in
      t.rels <- SymMap.add p rel t.rels;
      rel
  in
  Flatrel.add rel (Fact.args f) 0

let of_list l =
  let t = create () in
  List.iter (fun f -> ignore (add t f)) l;
  t

let of_set s =
  let t = create () in
  Fact.Set.iter (fun f -> ignore (add t f)) s;
  t

let mem t f =
  match SymMap.find_opt (Fact.pred f) t.rels with
  | Some rel -> Flatrel.arity rel = Fact.arity f && Flatrel.mem rel (Fact.args f) 0
  | None -> false

let size t = SymMap.fold (fun _ rel n -> n + Flatrel.length rel) t.rels 0

let preds t =
  SymMap.fold (fun p rel acc -> if Flatrel.length rel > 0 then p :: acc else acc) t.rels []
  |> List.rev

let count_pred t p =
  match SymMap.find_opt p t.rels with
  | Some rel -> Flatrel.length rel
  | None -> 0

let iter_rel f p rel = Flatrel.iter rel (fun row -> f (Flatrel.fact rel ~pred:p row))

let iter f t = SymMap.iter (iter_rel f) t.rels

let iter_pred t p f =
  match SymMap.find_opt p t.rels with
  | Some rel -> iter_rel f p rel
  | None -> ()

(* Bucket size of [c] at column [pos], building the column index on
   first use. A position beyond the arity matches nothing. *)
let bucket_size rel (pos, c) =
  if pos >= Flatrel.arity rel then 0
  else begin
    Flatrel.ensure_index rel pos;
    Flatrel.probe_count rel pos c
  end

let estimate t p bound =
  match SymMap.find_opt p t.rels with
  | None -> 0
  | Some rel -> (
    match bound with
    | [] -> Flatrel.length rel
    | _ -> List.fold_left (fun acc b -> min acc (bucket_size rel b)) max_int bound)

let iter_matching t p bound f =
  match SymMap.find_opt p t.rels with
  | None -> ()
  | Some rel -> (
    let arity = Flatrel.arity rel in
    match bound with
    | [] -> iter_rel f p rel
    | _ when List.length bound = arity ->
      (* Every position bound: one row-table lookup, no index. *)
      let args = Array.make arity 0 in
      List.iter (fun (pos, c) -> args.(pos) <- c) bound;
      Metrics.incr m_index_probes;
      if Flatrel.mem rel args 0 then begin
        Metrics.incr m_index_hits;
        f (Fact.make p args)
      end
    | _ -> (
      (* Scan the smallest index bucket among the bound positions and
         filter on the others. *)
      let best =
        List.fold_left
          (fun acc entry ->
            let size = bucket_size rel entry in
            match acc with
            | Some (_, best_size) when best_size <= size -> acc
            | _ -> Some (entry, size))
          None bound
      in
      match best with
      | None -> ()
      | Some (_, 0) -> Metrics.incr m_index_probes
      | Some ((pos0, c0), _) ->
        Metrics.incr m_index_probes;
        Option.iter
          (fun rows ->
            Metrics.incr m_index_hits;
            let rest = List.filter (fun (pos, _) -> pos <> pos0) bound in
            Vec.iter
              (fun row ->
                if List.for_all (fun (pos, c) -> Flatrel.get rel row pos = c) rest
                then f (Flatrel.fact rel ~pred:p row))
              rows)
          (Flatrel.bucket rel pos0 c0)))

let to_list t =
  let acc = ref [] in
  iter (fun f -> acc := f :: !acc) t;
  !acc

let to_set t =
  let acc = ref Fact.Set.empty in
  iter (fun f -> acc := Fact.Set.add f !acc) t;
  !acc

let domain t =
  let seen = Hashtbl.create 256 in
  SymMap.iter
    (fun _ rel ->
      Flatrel.iter rel (fun row ->
          for col = 0 to Flatrel.arity rel - 1 do
            Hashtbl.replace seen (Flatrel.get rel row col) ()
          done))
    t.rels;
  List.sort Symbol.compare (Hashtbl.fold (fun c () acc -> c :: acc) seen [])

let copy t = of_list (to_list t)

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_newline ppf ())
    Fact.pp ppf
    (List.sort Fact.compare (to_list t))
