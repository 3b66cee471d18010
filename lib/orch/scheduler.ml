let pick cmp nodes ~cpu ~mem =
  List.fold_left
    (fun best n ->
      if not (Node.fits n ~cpu ~mem) then best
      else
        match best with
        | None -> Some n
        | Some b ->
          if cmp (Node.requested_fraction n) (Node.requested_fraction b)
          then Some n
          else best)
    None nodes

let most_requested nodes ~cpu ~mem = pick (fun a b -> a > b) nodes ~cpu ~mem

(* Exact placement index for [most_requested].

   Node positions (0 .. n-1, list order) sit in a treap ordered by
   (requested fraction descending, position ascending): the order in
   which the fold prefers them, since it keeps the first node of the
   highest fraction.  Every subtree carries the largest free CPU and the
   largest free memory among its nodes.  [place] walks the treap in
   order and takes the first node that [Node.fits], which is the fold's
   answer by construction.  The keys are the very floats
   [Node.requested_fraction] returns, so the order agrees with the
   fold's comparisons bit for bit.

   A subtree is skipped only when its free maxima show that no node in
   it can fit, widened by [slack]: [fits] tests [req + cpu <= cap + 1e-9]
   in floats, and a node passing that test has [cap - req] at least
   [cpu] minus 1e-9 minus a few ulps of [cap], far inside
   1e-6 * (1 + largest capacity).  Readiness is not part of the bounds;
   the exact [fits] call on each candidate handles it.

   All arrays are indexed by position and -1 is the empty tree.  What
   allocates: [release] nothing and [place] only its [Some] result, 2
   words (test_container_orch's "index allocation" gate).  Without
   flambda a float is boxed when a branch yields it into a [let] or a
   call returns it, and no accessor of {!Node} is inlined here; so
   floats are compared and stored straight between the [Float.Array]s
   and {!Node.resources}, whose all-float record reads unboxed. *)
module Index = struct
  type t = {
    nodes : Node.t array;
    prio : int array;            (* treap heap priority, max at the root *)
    left : int array;
    right : int array;
    frac : Float.Array.t;        (* key: requested fraction *)
    free_cpu : Float.Array.t;    (* capacity minus requested, own *)
    free_mem : Float.Array.t;
    max_cpu : Float.Array.t;     (* subtree maxima of the above *)
    max_mem : Float.Array.t;
    slack : float;
    mutable root : int;
    mutable examined : int;
  }

  (* Strictly before in the fold's preference order. *)
  let before t a b =
    let fa = Float.Array.unsafe_get t.frac a
    and fb = Float.Array.unsafe_get t.frac b in
    fa > fb || (fa = fb && a < b)

  let[@inline] fmax a b = if a > b then a else b

  (* [a.(r) <- fmax a.(r) a.(c)], compared and stored in place: a
     let-bound float that comes out of a branch is boxed. *)
  let[@inline] raise_to a r c =
    if not (Float.Array.get a r > Float.Array.get a c) then
      Float.Array.set a r (Float.Array.get a c)

  let pull t r =
    Float.Array.set t.max_cpu r (Float.Array.get t.free_cpu r);
    Float.Array.set t.max_mem r (Float.Array.get t.free_mem r);
    let l = t.left.(r) and rr = t.right.(r) in
    if l >= 0 then begin
      raise_to t.max_cpu r l;
      raise_to t.max_mem r l
    end;
    if rr >= 0 then begin
      raise_to t.max_cpu r rr;
      raise_to t.max_mem r rr
    end

  (* Re-reads node [i]'s key and free capacity; [i] must be detached. *)
  let refresh t i =
    let r = Node.resources t.nodes.(i) in
    Float.Array.set t.frac i r.Node.fraction;
    Float.Array.set t.free_cpu i (r.Node.cpu_cap -. r.Node.cpu_req);
    Float.Array.set t.free_mem i (r.Node.mem_cap -. r.Node.mem_req);
    t.left.(i) <- -1;
    t.right.(i) <- -1

  let rec insert t r x =
    if r < 0 then begin
      pull t x;
      x
    end
    else if before t x r then begin
      let l = insert t t.left.(r) x in
      if t.prio.(l) > t.prio.(r) then begin
        t.left.(r) <- t.right.(l);
        t.right.(l) <- r;
        pull t r;
        pull t l;
        l
      end
      else begin
        t.left.(r) <- l;
        pull t r;
        r
      end
    end
    else begin
      let g = insert t t.right.(r) x in
      if t.prio.(g) > t.prio.(r) then begin
        t.right.(r) <- t.left.(g);
        t.left.(g) <- r;
        pull t r;
        pull t g;
        g
      end
      else begin
        t.right.(r) <- g;
        pull t r;
        r
      end
    end

  let rec merge t a b =
    if a < 0 then b
    else if b < 0 then a
    else if t.prio.(a) > t.prio.(b) then begin
      t.right.(a) <- merge t t.right.(a) b;
      pull t a;
      a
    end
    else begin
      t.left.(b) <- merge t a t.left.(b);
      pull t b;
      b
    end

  (* [x] is in the tree under its current key. *)
  let rec remove t r x =
    if r = x then merge t t.left.(x) t.right.(x)
    else begin
      if before t x r then t.left.(r) <- remove t t.left.(r) x
      else t.right.(r) <- remove t t.right.(r) x;
      pull t r;
      r
    end

  (* A well-mixed, reproducible heap priority per position. *)
  let prio_of i =
    let x = (i + 1) * 0x9E3779B97F4A7C1 in
    let x = (x lxor (x lsr 29)) * 0xBF58476D1CE4E5B in
    x lxor (x lsr 32)

  let create nodes =
    let nodes = Array.of_list nodes in
    let n = Array.length nodes in
    let cap_max =
      Array.fold_left
        (fun a nd ->
          let c = Node.cpu_capacity nd and m = Node.mem_capacity nd in
          if not (c > 0.0 && m > 0.0 && Float.is_finite c && Float.is_finite m)
          then invalid_arg "Scheduler.Index.create: capacity must be > 0";
          fmax a (fmax c m))
        0.0 nodes
    in
    let t =
      { nodes; prio = Array.init n prio_of; left = Array.make n (-1);
        right = Array.make n (-1); frac = Float.Array.make n 0.0;
        free_cpu = Float.Array.make n 0.0; free_mem = Float.Array.make n 0.0;
        max_cpu = Float.Array.make n 0.0; max_mem = Float.Array.make n 0.0;
        slack = 1e-6 *. (1.0 +. cap_max); root = -1; examined = 0 }
    in
    for i = 0 to n - 1 do
      refresh t i;
      t.root <- insert t t.root i
    done;
    t

  let node t i = t.nodes.(i)
  let examined t = t.examined

  (* First node in preference order that fits, or -1. *)
  let rec first t r ~cpu ~mem =
    if r < 0 then -1
    else begin
      t.examined <- t.examined + 1;
      if Float.Array.get t.max_cpu r < cpu -. t.slack
         || Float.Array.get t.max_mem r < mem -. t.slack
      then -1
      else
        let a = first t t.left.(r) ~cpu ~mem in
        if a >= 0 then a
        else if Node.fits t.nodes.(r) ~cpu ~mem then r
        else first t t.right.(r) ~cpu ~mem
    end

  let place t ~cpu ~mem =
    let i = first t t.root ~cpu ~mem in
    if i < 0 then None
    else begin
      t.root <- remove t t.root i;
      Node.reserve t.nodes.(i) ~cpu ~mem;
      refresh t i;
      t.root <- insert t t.root i;
      Some i
    end

  let release t i ~cpu ~mem =
    t.root <- remove t t.root i;
    Node.release t.nodes.(i) ~cpu ~mem;
    refresh t i;
    t.root <- insert t t.root i
end
