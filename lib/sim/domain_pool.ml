(* Work-stealing-free static pool: an atomic cursor over an array of
   inputs, [jobs - 1] spawned domains plus the calling one racing to
   claim indices.  Results land in their input's slot, so ordering is
   preserved no matter which domain computed what. *)

(* [Max_domains] in OCaml 5.1's runtime: domains alive at once, the
   calling one included.  Spawning past it fails in the runtime. *)
let max_domains = 128

let check_parties ~who n =
  if n > max_domains then
    invalid_arg
      (Printf.sprintf "%s: %d domains exceed the runtime's %d" who n
         max_domains)

let map ~jobs f xs =
  let n = List.length xs in
  let jobs = max 1 (min jobs n) in
  check_parties ~who:"Domain_pool.map" jobs;
  if jobs <= 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            try Ok (f inputs.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          out.(i) <- Some r;
          loop ()
        end
      in
      loop ()
    in
    let others = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join others;
    (* Domain.join is the synchronization point: every worker's writes
       to [out] happen-before this read. *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         out)
  end
