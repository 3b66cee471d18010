let markers = [ '*'; '+'; 'o'; 'x'; '#'; '@' ]

let nice_value v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.2f" v

let height = 12
let width = 72

let plot ~title ~y_label ~x_labels ~series =
  if x_labels = [] || series = [] then invalid_arg "Chart.plot: empty input";
  let n = List.length x_labels in
  let all_values = List.concat_map snd series in
  if all_values = [] then invalid_arg "Chart.plot: no data";
  let vmax = List.fold_left Float.max neg_infinity all_values in
  let vmin = Float.min 0.0 (List.fold_left Float.min infinity all_values) in
  let vmax = if vmax <= vmin then vmin +. 1.0 else vmax in
  let grid = Array.make_matrix height width ' ' in
  let col_of i =
    if n = 1 then width / 2 else i * (width - 1) / (n - 1)
  in
  let row_of v =
    let frac = (v -. vmin) /. (vmax -. vmin) in
    let r = int_of_float (Float.round (frac *. float_of_int (height - 1))) in
    height - 1 - max 0 (min (height - 1) r)
  in
  List.iteri
    (fun s_idx (_, values) ->
      let marker = List.nth markers (s_idx mod List.length markers) in
      List.iteri
        (fun i v ->
          if i < n then begin
            let c = col_of i and r = row_of v in
            grid.(r).(c) <- (if grid.(r).(c) = ' ' then marker else '%')
          end)
        values)
    series;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("  " ^ title ^ "\n");
  let y_tag r =
    if r = 0 then nice_value vmax
    else if r = height - 1 then nice_value vmin
    else if r = (height - 1) / 2 then nice_value ((vmax +. vmin) /. 2.0)
    else ""
  in
  Array.iteri
    (fun r row ->
      Buffer.add_string buf (Printf.sprintf "%10s |" (y_tag r));
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_string buf (Printf.sprintf "%10s +%s\n" "" (String.make width '-'));
  (* x tick labels: first, middle, last. *)
  let label i = List.nth x_labels i in
  let x_line = Bytes.make (width + 12) ' ' in
  let place s col =
    let start = max 0 (min (width + 12 - String.length s) (col + 11)) in
    String.iteri (fun j ch -> Bytes.set x_line (start + j) ch) s
  in
  place (label 0) (col_of 0);
  if n > 2 then place (label ((n - 1) / 2)) (col_of ((n - 1) / 2) - 3);
  if n > 1 then place (label (n - 1)) (col_of (n - 1) - String.length (label (n - 1)) + 1);
  Buffer.add_string buf (Bytes.to_string x_line);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "%10s  y: %s   " "" y_label);
  List.iteri
    (fun s_idx (name, _) ->
      Buffer.add_string buf
        (Printf.sprintf "%c=%s  "
           (List.nth markers (s_idx mod List.length markers))
           name))
    series;
  Buffer.add_char buf '\n';
  Buffer.contents buf
