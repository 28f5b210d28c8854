open Datalog

type t = {
  program : Program.t;
  db : Database.t;
  model : Database.t;
  ranks : Fact.t -> int option;
  (* Lazily chosen rank-decreasing derivation per fact. *)
  chosen : (Rule.t * Fact.t list) option Fact.Table.t;
}

let record program db =
  let model, ranks = Eval.seminaive_ranked program db in
  { program; db; model; ranks; chosen = Fact.Table.create 256 }

let model t = t.model

let rank t fact = Option.value ~default:max_int (t.ranks fact)

let derivation t fact =
  match Fact.Table.find_opt t.chosen fact with
  | Some d -> d
  | None ->
    let result =
      if Database.mem t.db fact || not (Database.mem t.model fact) then None
      else begin
        (* Pick a rule instance whose body was derived strictly earlier;
           one exists by the definition of the rank (Prop. 28). The
           choice function is therefore well-founded, and every
           reconstructed tree has depth = rank, i.e. minimal depth. *)
        let r = rank t fact in
        Eval.derivations t.program t.model fact
        |> List.find_opt (fun (_, body) ->
               List.for_all (fun b -> rank t b < r) body)
      end
    in
    Fact.Table.add t.chosen fact result;
    result

let proof_tree t fact =
  if not (Database.mem t.model fact) then None
  else begin
    let memo : Proof_tree.t Fact.Table.t = Fact.Table.create 64 in
    let rec build fact =
      match Fact.Table.find_opt memo fact with
      | Some tree -> tree
      | None ->
        let tree =
          match derivation t fact with
          | None -> Proof_tree.Leaf fact
          | Some (rule, body) ->
            Proof_tree.Node { fact; rule; children = List.map build body }
        in
        Fact.Table.add memo fact tree;
        tree
    in
    Some (build fact)
  end

let support t fact =
  if not (Database.mem t.model fact) then None
  else begin
    let seen : unit Fact.Table.t = Fact.Table.create 64 in
    let acc = ref Fact.Set.empty in
    let rec walk fact =
      if not (Fact.Table.mem seen fact) then begin
        Fact.Table.add seen fact ();
        match derivation t fact with
        | None -> acc := Fact.Set.add fact !acc
        | Some (_, body) -> List.iter walk body
      end
    in
    walk fact;
    Some !acc
  end
