(** Terminal charts for the experiment harness: the tables stay the
    ground truth, but a curve per figure makes who-wins-where readable at
    a glance in CI logs. *)

val plot :
  title:string ->
  y_label:string ->
  x_labels:string list ->
  series:(string * float list) list ->
  string
(** Categorical-x line chart: every series has one value per x label
    (shorter series are right-padded with gaps), on a plot area of 12
    rows by 72 columns.  Returns the rendered
    block (with legend); raises [Invalid_argument] on empty input. *)

val markers : char list
(** Marker cycle, in series order. *)
