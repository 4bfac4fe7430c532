//! SGD with momentum, the paper's step-decay learning-rate schedule, and
//! the guarded, checkpointed epoch loop ([`GuardedLoop`]) that both
//! training drivers — the interval search and the detector trainer — run
//! on.

use crate::graph::{ParamId, ParamStore, Tape, Var};
use defcon_support::ckpt;
use defcon_support::error::DefconError;
use defcon_support::fault;
use defcon_support::json::{Json, JsonError};
use defcon_support::obs;
use std::path::PathBuf;

/// SGD configuration (paper §IV-A: momentum 0.9, initial LR 1e-2, decay by
/// 0.1 at milestones, saturating at 1e-6).
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Base learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Weight decay applied to decay-flagged parameters.
    pub weight_decay: f32,
    /// Iterations at which the LR is multiplied by `gamma`.
    pub milestones: Vec<usize>,
    /// Multiplicative decay at each milestone.
    pub gamma: f32,
    /// LR floor.
    pub min_lr: f32,
    step_count: usize,
    /// Multiplicative backoff applied on top of the schedule by recovery
    /// paths (1.0 = none). See [`Sgd::backoff`].
    lr_scale: f32,
}

impl Sgd {
    /// Builds an optimizer; milestones are absolute step indices.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            milestones: Vec::new(),
            gamma: 0.1,
            min_lr: 1e-6,
            step_count: 0,
            lr_scale: 1.0,
        }
    }

    /// The paper's training configuration scaled to a given run length:
    /// decay ×0.1 at 60 % and 85 % of `total_steps`.
    pub fn paper_schedule(lr: f32, total_steps: usize) -> Self {
        let mut s = Sgd::new(lr, 0.9, 5e-4);
        s.milestones = vec![(total_steps * 6) / 10, (total_steps * 17) / 20];
        s
    }

    /// Learning rate in effect at the current step.
    pub fn current_lr(&self) -> f32 {
        let decays = self
            .milestones
            .iter()
            .filter(|&&m| self.step_count >= m)
            .count();
        (self.lr * self.lr_scale * self.gamma.powi(decays as i32)).max(self.min_lr)
    }

    /// Multiplies the backoff scale by `factor` (0 < factor ≤ 1). Trainer
    /// recovery paths call this after rolling back a non-finite step:
    /// divergence from a too-hot LR re-runs at a gentler one. The scale
    /// composes with (does not replace) the milestone schedule.
    pub fn backoff(&mut self, factor: f32) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "backoff factor must be in (0, 1]"
        );
        self.lr_scale *= factor;
    }

    /// Current backoff scale (1.0 when no backoff has been applied).
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Restores schedule position and backoff scale (checkpoint resume).
    pub fn restore_schedule(&mut self, steps: usize, lr_scale: f32) {
        self.step_count = steps;
        self.lr_scale = lr_scale;
    }

    /// Applies one update from the accumulated gradients, then advances the
    /// schedule and zeroes the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        let lr = self.current_lr();
        store.sgd_step(lr, self.momentum, self.weight_decay);
        self.step_count += 1;
        store.zero_grads();
    }

    /// Number of completed steps.
    pub fn steps(&self) -> usize {
        self.step_count
    }
}

/// Robustness knobs of a [`GuardedLoop`] run.
#[derive(Clone, Debug)]
pub struct RobustConfig {
    /// Where to checkpoint after every epoch (atomic write + CRC); `None`
    /// disables checkpointing. A valid checkpoint here is resumed, a
    /// corrupt or truncated one is discarded and the run starts fresh.
    pub checkpoint: Option<PathBuf>,
    /// Extra attempts per mini-batch step after a non-finite loss or
    /// gradient, before [`DefconError::RetriesExhausted`].
    pub max_step_retries: usize,
    /// LR backoff factor in `(0, 1]`, applied via [`Sgd::backoff`] on
    /// every rollback.
    pub lr_backoff: f32,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            checkpoint: None,
            max_step_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

impl RobustConfig {
    /// Rejects a backoff factor [`Sgd::backoff`] would panic on, so a bad
    /// config fails before the first step instead of at the first rollback.
    fn validate(&self) -> Result<(), DefconError> {
        if self.lr_backoff > 0.0 && self.lr_backoff <= 1.0 {
            return Ok(());
        }
        Err(DefconError::Constraint {
            what: "robust-config".into(),
            detail: format!("lr_backoff must be in (0, 1], got {}", self.lr_backoff),
        })
    }
}

/// The fault points and obs events that name one training driver's
/// [`GuardedLoop`] (e.g. `search.loss`, `search.rollback`).
#[derive(Clone, Copy, Debug)]
pub struct LoopSite {
    /// Fault point that makes a step's loss value non-finite.
    pub loss_fault: &'static str,
    /// Fault point that poisons a parameter gradient after backward.
    pub grad_fault: &'static str,
    /// Event emitted on every rollback.
    pub rollback_event: &'static str,
    /// Event emitted after every checkpoint write.
    pub checkpoint_event: &'static str,
}

/// One guarded, checkpointed SGD run, driven epoch by epoch:
///
/// - [`GuardedLoop::start`] resumes from a CRC-valid checkpoint of the
///   store; a corrupt one, or one that does not fit the store (e.g. from
///   another model), leaves the store untouched and the run starts fresh;
/// - [`GuardedLoop::done`] names the epochs a resume already completed;
/// - [`GuardedLoop::step`] guards each step: a non-finite loss or gradient
///   rolls the store back to the pre-step snapshot (values + momentum),
///   backs the learning rate off and retries the same mini-batch;
/// - [`GuardedLoop::end_epoch`] records the mean loss and checkpoints.
///
/// Resume replays nothing: training continues from the stored parameters,
/// momentum and LR schedule, so a resumed run is byte-identical to an
/// uninterrupted one when the loss is a pure function of the store and the
/// mini-batch. State outside the store (Gumbel noise streams, BatchNorm
/// running statistics) resumes correctly but is not replayed.
pub struct GuardedLoop {
    /// Mean loss of every completed epoch, resumed ones included.
    pub loss_history: Vec<f32>,
    /// A loss the driver carries through checkpoints (NaN until it sets
    /// one; the search keeps its last fine-tuning loss here).
    pub final_loss: f32,
    opt: Sgd,
    site: LoopSite,
    robust: RobustConfig,
    poison: Option<ParamId>,
    epoch_loss: f32,
    epoch_steps: usize,
}

impl GuardedLoop {
    /// Validates `robust`, then starts a run of `opt` over `store`,
    /// resuming from `robust.checkpoint` when it holds an intact checkpoint
    /// of this store. `poison` is the parameter the grad fault point
    /// poisons.
    pub fn start(
        site: LoopSite,
        robust: &RobustConfig,
        opt: Sgd,
        store: &mut ParamStore,
        poison: Option<ParamId>,
    ) -> Result<Self, DefconError> {
        robust.validate()?;
        let mut run = GuardedLoop {
            loss_history: Vec::new(),
            final_loss: f32::NAN,
            opt,
            site,
            robust: robust.clone(),
            poison,
            epoch_loss: 0.0,
            epoch_steps: 0,
        };
        if let Some(path) = &robust.checkpoint {
            if let Some(payload) = ckpt::load_or_discard(path)? {
                let pre = store.snapshot();
                match parse_checkpoint(&payload, store) {
                    Ok((loss_history, final_loss, opt_steps, opt_lr_scale)) => {
                        run.loss_history = loss_history;
                        run.final_loss = final_loss;
                        run.opt.restore_schedule(opt_steps, opt_lr_scale);
                    }
                    // CRC-valid but stale: degrade to a fresh start; the
                    // store must not keep a partial load.
                    Err(_) => store.restore(&pre),
                }
            }
        }
        Ok(run)
    }

    /// True when epoch `epoch` (counted over the whole run) completed
    /// before a resume, so the driver skips it.
    pub fn done(&self, epoch: usize) -> bool {
        self.loss_history.len() > epoch
    }

    /// One guarded optimization step; returns the (finite) loss value.
    ///
    /// `forward` records the mini-batch on a fresh tape and returns the
    /// loss whose value is checked and reported, and the objective to
    /// backpropagate (the loss plus any penalty). `at` tags rollback
    /// events (`("batch", 3)`); `what` describes the step in the
    /// [`DefconError::RetriesExhausted`] error.
    pub fn step(
        &mut self,
        store: &mut ParamStore,
        at: (&'static str, usize),
        what: impl FnOnce() -> String,
        mut forward: impl FnMut(&mut Tape, &ParamStore) -> (Var, Var),
    ) -> Result<f32, DefconError> {
        for attempt in 0..=self.robust.max_step_retries {
            let snap = store.snapshot();
            store.zero_grads();
            let mut tape = Tape::new();
            let (loss, objective) = forward(&mut tape, store);
            let mut loss_val = tape.value(loss).data()[0];
            fault::nonfinite_f32(self.site.loss_fault, &mut loss_val);
            if loss_val.is_finite() {
                tape.backward(objective);
                tape.write_param_grads(store);
                if fault::fires(self.site.grad_fault) {
                    if let Some(id) = self.poison {
                        // Inject an exploded gradient for the guard to catch.
                        let poisoned = store.value(id).scale(f32::NAN);
                        store.accumulate_grad(id, &poisoned);
                    }
                }
                if store.grads_finite() {
                    self.opt.step(store);
                    self.epoch_loss += loss_val;
                    self.epoch_steps += 1;
                    return Ok(loss_val);
                }
            }
            // Degradation path: the step diverged — roll back parameters
            // and momentum, gear the LR down, retry the same mini-batch.
            store.restore(&snap);
            self.opt.backoff(self.robust.lr_backoff);
            obs::event_with(self.site.rollback_event, || {
                vec![
                    (at.0, Json::from(at.1)),
                    ("attempt", Json::from(attempt)),
                    ("lr_backoff", Json::from(self.robust.lr_backoff as f64)),
                ]
            });
        }
        Err(DefconError::RetriesExhausted {
            what: format!("{} (non-finite loss/gradient)", what()),
            attempts: self.robust.max_step_retries + 1,
        })
    }

    /// Ends an epoch: records the mean step loss on the epoch's `span` and
    /// closes it, appends the mean to the history, and checkpoints.
    pub fn end_epoch(&mut self, store: &ParamStore, span: obs::Span) -> Result<(), DefconError> {
        let mean_loss = self.epoch_loss / self.epoch_steps.max(1) as f32;
        (self.epoch_loss, self.epoch_steps) = (0.0, 0);
        span.record("loss", Json::from(mean_loss as f64));
        drop(span);
        self.loss_history.push(mean_loss);
        let Some(path) = &self.robust.checkpoint else {
            return Ok(());
        };
        let history = self.loss_history.iter().map(|&v| Json::from(v as f64));
        // A NaN `final_loss` serializes as `null`.
        let doc = Json::obj(vec![
            ("epochs_done", Json::from(self.loss_history.len())),
            ("final_loss", Json::from(self.final_loss as f64)),
            ("loss_history", Json::Arr(history.collect())),
            ("opt_steps", Json::from(self.opt.steps())),
            ("opt_lr_scale", Json::from(self.opt.lr_scale() as f64)),
            ("params", store.state_to_json()),
        ]);
        ckpt::save(path, &doc.to_string())?;
        obs::event_with(self.site.checkpoint_event, || {
            vec![("epochs_done", Json::from(self.loss_history.len()))]
        });
        Ok(())
    }
}

/// Decodes a CRC-valid checkpoint payload into `(loss_history, final_loss,
/// opt_steps, opt_lr_scale)` and loads its parameters into `store`. On
/// error the caller restores `store` from a pre-parse snapshot (the load
/// may have been partial). A missing or `null` `final_loss` reads as NaN.
fn parse_checkpoint(
    payload: &str,
    store: &mut ParamStore,
) -> Result<(Vec<f32>, f32, usize, f32), JsonError> {
    let doc = Json::parse(payload)?;
    let final_loss = match doc.get("final_loss") {
        None | Some(Json::Null) => f32::NAN,
        Some(_) => doc.num_field("final_loss")? as f32,
    };
    let loss_history = doc
        .field("loss_history")?
        .as_arr()
        .ok_or_else(|| JsonError::msg("loss_history must be an array"))?
        .iter()
        .map(|v| v.as_f64().map(|v| v as f32))
        .collect::<Option<Vec<f32>>>()
        .ok_or_else(|| JsonError::msg("loss_history entries must be numbers"))?;
    if loss_history.len() != doc.usize_field("epochs_done")? {
        return Err(JsonError::msg("epochs_done disagrees with loss_history"));
    }
    let opt_steps = doc.usize_field("opt_steps")?;
    let opt_lr_scale = doc.num_field("opt_lr_scale")? as f32;
    store.load_state_json(doc.field("params")?)?;
    Ok((loss_history, final_loss, opt_steps, opt_lr_scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_tensor::Tensor;

    #[test]
    fn lr_decays_at_milestones() {
        let mut s = Sgd::new(0.1, 0.9, 0.0);
        s.milestones = vec![2, 4];
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]), true);
        assert!((s.current_lr() - 0.1).abs() < 1e-7);
        s.step(&mut store); // step 0 -> 1
        s.step(&mut store); // 1 -> 2
        assert!((s.current_lr() - 0.01).abs() < 1e-7);
        s.step(&mut store);
        s.step(&mut store);
        assert!((s.current_lr() - 0.001).abs() < 1e-7);
    }

    #[test]
    fn lr_floors_at_min() {
        let mut s = Sgd::new(1e-5, 0.9, 0.0);
        s.milestones = vec![0];
        s.step_count = 1;
        assert!((s.current_lr() - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn momentum_accelerates_descent() {
        // Minimize f(w) = w² from w=1; with momentum the parameter should
        // move farther after two identical-gradient steps than without.
        let run = |mom: f32| {
            let mut store = ParamStore::new();
            let w = store.add("w", Tensor::from_vec(vec![1.0], &[1]), false);
            let mut opt = Sgd::new(0.1, mom, 0.0);
            for _ in 0..2 {
                let g = Tensor::from_vec(vec![2.0 * store.value(w).data()[0]], &[1]);
                store.accumulate_grad(w, &g);
                opt.step(&mut store);
            }
            store.value(w).data()[0]
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn backoff_scales_lr_and_composes_with_schedule() {
        let mut s = Sgd::new(0.1, 0.9, 0.0);
        s.milestones = vec![1];
        s.backoff(0.5);
        assert!((s.current_lr() - 0.05).abs() < 1e-7);
        s.step_count = 1; // past the milestone: gamma and backoff compose
        assert!((s.current_lr() - 0.005).abs() < 1e-7);
    }

    #[test]
    fn restore_schedule_reproduces_lr() {
        let mut a = Sgd::paper_schedule(0.01, 100);
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(&[1]), true);
        for _ in 0..70 {
            a.step(&mut store);
        }
        a.backoff(0.25);
        let mut b = Sgd::paper_schedule(0.01, 100);
        b.restore_schedule(a.steps(), a.lr_scale());
        assert_eq!(a.current_lr(), b.current_lr());
        assert_eq!(a.steps(), b.steps());
    }

    #[test]
    fn paper_schedule_milestones_proportional() {
        let s = Sgd::paper_schedule(0.01, 100);
        assert_eq!(s.milestones, vec![60, 85]);
    }
}
