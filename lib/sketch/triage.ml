(* The sketch triage of a whole fleet: every path's loss EWMA,
   delay-quantile tracker and gate, plus the shared count-min sketch
   over losses, as flat columns indexed by path.  One [push] is one
   pass over the batch and a fixed number of column touches; a quiet
   path's push allocates nothing.  The arithmetic stays in Estimators,
   Count_min and Gate: this module only sequences it. *)

(* The loss EWMA's smoothing factor: ~7-epoch memory, enough to smooth
   a single noisy batch without hiding a persistent shift. *)
let ewma_alpha = 0.15

(* The tracked delay quantile.  0.75 splits the template shapes the
   tests themselves split: a strongly dominant VQD concentrates its
   delay mass at the top symbols (high 0.75-quantile), a no-DCL shape
   keeps it near the propagation floor. *)
let quantile_p = 0.75

type t = {
  config : Gate.config;
  cms : Count_min.t;
  loss : Estimators.Ewma.t;
  delay : Estimators.Quantile.t;
  gate : Gate.t;
  last_eval : int array; (* epoch of the path's last gate evaluation *)
  loss_decay : Estimators.Decay_table.t; (* (1 - alpha)^k *)
  signals : Estimators.signals; (* the last evaluation's inputs *)
}

let create config ~paths ~symbols =
  if paths <= 0 then invalid_arg "Sketch.Triage.create: paths must be positive";
  if symbols < 2 then invalid_arg "Sketch.Triage.create: symbols must be at least 2";
  {
    config;
    (* Four rows at ~4 cells per path bound the collision inflation
       well under one loss event at fleet scale. *)
    cms = Count_min.create ~width:(4 * paths) ~seed:0x5ce7c4 ();
    loss = Estimators.Ewma.make ~alpha:ewma_alpha paths;
    delay =
      Estimators.Quantile.make ~p:quantile_p ~lo:0.
        ~hi:(float_of_int (symbols - 1)) paths;
    gate = Gate.create paths;
    last_eval = Array.make paths (-1);
    loss_decay = Estimators.Decay_table.make ~factor:(1. -. ewma_alpha) ();
    signals = Estimators.signals ();
  }

let push t ~path ~epoch ~settled batch =
  let len = Array.length batch in
  if len = 0 then invalid_arg "Sketch.Triage.push: empty batch";
  let losses = Estimators.Quantile.absorb t.delay path batch in
  let last = t.last_eval.(path) in
  let evaluate = last < epoch in
  (* One hash per row serves both the add and the epoch's query. *)
  let estimate =
    if evaluate || losses > 0 then Count_min.add_query t.cms path losses else 0
  in
  (* Coast the EWMA over epochs the path was not pushed at all, so a
     sparsely probed path's stale loss estimate decays like everyone
     else's. *)
  let missed = epoch - last - 1 in
  if last >= 0 && missed > 0 then
    Estimators.Ewma.coast t.loss t.loss_decay path missed;
  Estimators.Ewma.update_ratio t.loss path losses len;
  if not evaluate then Gate.Stay
  else begin
    t.last_eval.(path) <- epoch;
    Estimators.read_signals t.loss t.delay path t.signals;
    (* The loss signal is the EWMA masked by the count-min estimate:
       the sketch only ever overestimates, so a zero estimate proves a
       loss-free decayed window and can never hide a real loser. *)
    if estimate = 0 then t.signals.loss <- 0.;
    Gate.evaluate t.config t.gate path t.signals ~settled
  end

let cause t =
  Gate.suspect_cause t.config ~loss:t.signals.loss ~drift:t.signals.drift

let age t = Count_min.halve t.cms
let promoted t i = Gate.promoted t.gate i
let streak t i = Gate.streak t.gate i
let loss_ewma t i = Estimators.Ewma.value t.loss i
let quantile t i = Estimators.Quantile.value t.delay i
let drift t i = Estimators.Quantile.elevation t.delay i
let loss_estimate t i = Count_min.query t.cms i
