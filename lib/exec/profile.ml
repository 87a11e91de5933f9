type node = {
  pname : string;
  mutable rows_out : int;
  mutable batches : int;
  mutable ms : float;
  mutable open_ms : float;
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable open_reads : int;
  mutable open_writes : int;
  mutable open_hits : int;
  mutable children : node list;  (* reverse registration order *)
}

type t = {
  mutable roots : node list;
  mutable stack : node list;
  mutable failed : string option;
}

let create () = { roots = []; stack = []; failed = None }

let enter t pname =
  let node =
    {
      pname;
      rows_out = 0;
      batches = 0;
      ms = 0.;
      open_ms = 0.;
      reads = 0;
      writes = 0;
      hits = 0;
      open_reads = 0;
      open_writes = 0;
      open_hits = 0;
      children = [];
    }
  in
  (match t.stack with
   | [] -> t.roots <- node :: t.roots
   | parent :: _ -> parent.children <- node :: parent.children);
  t.stack <- node :: t.stack;
  node

let leave t =
  match t.stack with
  | [] -> invalid_arg "Profile.leave: empty stack"
  | _ :: rest -> t.stack <- rest

let roots t = List.rev t.roots
let children n = List.rev n.children

let set_error t msg = if t.failed = None then t.failed <- Some msg
let error t = t.failed

let rows_in n =
  List.fold_left (fun acc c -> acc + c.rows_out) 0 n.children

(* Inclusive wall time: open cost (blocking operators drain their inputs
   while opening, outside any iterator wrapper) plus pull cost. *)
let total_ms n = n.open_ms +. n.ms

(* Inclusive page IO attributed to this node (includes descendants: IO is
   sampled around open and around next_batch/next of the wrapped subtree). *)
let total_reads n = n.open_reads + n.reads
let total_writes n = n.open_writes + n.writes
let total_hits n = n.open_hits + n.hits

(* Page touches: physical IO plus pool hits.  The cost model has no caching
   notion — it prices every page touch — so this is the estimate-comparable
   actual, stable whether the pool is cold or warm. *)
let total_touches n = total_reads n + total_writes n + total_hits n

(* Two clock reads and two IO snapshots per pull; [ms] and the page IO are
   inclusive of the subtree. *)
let wrap_biter node st (bit : Biter.t) =
  let next_batch () =
    let t0 = Unix.gettimeofday () in
    let before = Storage.io_snapshot st in
    let r = bit.Biter.next_batch () in
    let io = Storage.io_since st before in
    node.ms <- node.ms +. ((Unix.gettimeofday () -. t0) *. 1000.);
    node.reads <- node.reads + io.Buffer_pool.reads;
    node.writes <- node.writes + io.Buffer_pool.writes;
    node.hits <- node.hits + io.Buffer_pool.hits;
    (match r with
     | None -> ()
     | Some b ->
       node.batches <- node.batches + 1;
       node.rows_out <- node.rows_out + Batch.live b);
    r
  in
  { bit with Biter.next_batch }

let rec pp_node ppf (indent, n) =
  let self_ms =
    List.fold_left (fun acc c -> acc -. total_ms c) (total_ms n) n.children
  in
  Format.fprintf ppf
    "%s%-18s rows_in=%-8d rows_out=%-8d batches=%-6d pages=%-6d ms=%.2f"
    (String.make indent ' ') n.pname (rows_in n) n.rows_out n.batches
    (total_touches n)
    (max 0. self_ms);
  List.iter
    (fun c -> Format.fprintf ppf "@\n%a" pp_node (indent + 2, c))
    (children n)

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  (match t.failed with
   | Some msg -> Format.fprintf ppf "(partial: %s)@\n" msg
   | None -> ());
  List.iteri
    (fun i n ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_node ppf (0, n))
    (roots t);
  Format.pp_close_box ppf ()

let to_string t = Format.asprintf "%a" pp t
