//! Gradient-based interval search (paper Algorithm 1).
//!
//! The search trains a *dual-path supernet* — every candidate 3×3 slot
//! holds both a regular convolution and a DCN, mixed by Gumbel-Softmax over
//! a two-element architecture parameter `[α⁰, α¹]` (Eq. 5) — while adding
//! the latency penalty `β · |Σ ⌈α¹>α⁰⌋ · α¹ · t(w) − T|²` (Eq. 6). After
//! the search epochs, each slot is frozen to the operator with the larger
//! α, and the resulting architecture is fine-tuned.
//!
//! The driver is generic over [`SearchModel`] so the same algorithm runs on
//! the real detector supernet in `defcon-models` and on small synthetic
//! models in tests.

use crate::lut::{LatencyKey, LatencyLut};
use defcon_nn::graph::{ParamId, ParamStore, Tape, Var};
use defcon_nn::gumbel::TemperatureSchedule;
use defcon_nn::modules::LayerChoice;
use defcon_nn::ops;
use defcon_nn::optim::{GuardedLoop, LoopSite, RobustConfig, Sgd};
use defcon_support::error::DefconError;
use defcon_support::json::Json;
use defcon_support::obs;

/// The search's fault points and obs events on the shared [`GuardedLoop`].
const SEARCH_SITE: LoopSite = LoopSite {
    loss_fault: "search.loss",
    grad_fault: "search.alpha_grad",
    rollback_event: "search.rollback",
    checkpoint_event: "search.checkpoint",
};

/// What the search needs from a supernet.
pub trait SearchModel {
    /// Number of dual-path slots.
    fn num_slots(&self) -> usize;

    /// Architecture parameter of slot `i` (shape `[2]`: `[α⁰, α¹]`).
    fn alpha(&self, i: usize) -> ParamId;

    /// Latency-LUT key of slot `i`.
    fn latency_key(&self, i: usize) -> LatencyKey;

    /// Sets the Gumbel-Softmax temperature for the coming epoch.
    fn set_temperature(&mut self, tau: f32);

    /// Records one training forward pass for mini-batch `batch` and returns
    /// the task loss Var. The model must register its α parameters on the
    /// tape (they are when the dual-path layers run un-frozen).
    fn forward_loss(&mut self, tape: &mut Tape, store: &ParamStore, batch: usize) -> Var;

    /// Freezes every slot to its current α decision; returns the choices.
    fn freeze(&mut self, store: &ParamStore) -> Vec<LayerChoice>;
}

/// Search hyper-parameters.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Search epochs (supernet training with the latency penalty).
    pub search_epochs: usize,
    /// Fine-tuning epochs after freezing.
    pub finetune_epochs: usize,
    /// Mini-batches per epoch.
    pub iters_per_epoch: usize,
    /// Penalty weight β (Eq. 4).
    pub beta: f32,
    /// Target latency `T` in milliseconds (Eq. 6).
    pub target_latency_ms: f32,
    /// Temperature annealing for the Gumbel-Softmax.
    pub temperature: TemperatureSchedule,
    /// Optimizer learning rate.
    pub lr: f32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            search_epochs: 6,
            finetune_epochs: 4,
            iters_per_epoch: 8,
            beta: 1.0,
            target_latency_ms: 0.0,
            temperature: TemperatureSchedule::standard(),
            lr: 0.05,
        }
    }
}

/// The outcome of a search run.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Per-slot operator decision.
    pub choices: Vec<LayerChoice>,
    /// Task loss measured on the last fine-tuning iteration.
    pub final_loss: f32,
    /// Estimated DCN latency overhead of the chosen architecture (Σ t(w)
    /// over deformable slots), milliseconds.
    pub dcn_overhead_ms: f64,
    /// Task-loss trajectory (one value per epoch, search then fine-tune).
    pub loss_history: Vec<f32>,
}

impl SearchOutcome {
    /// Number of slots that chose the deformable operator.
    pub fn num_dcn(&self) -> usize {
        self.choices
            .iter()
            .filter(|&&c| c == LayerChoice::Deformable)
            .count()
    }

    /// Compact layout string, e.g. `".D..D"` (Fig. 6 style).
    pub fn layout(&self) -> String {
        self.choices
            .iter()
            .map(|c| {
                if *c == LayerChoice::Deformable {
                    'D'
                } else {
                    '.'
                }
            })
            .collect()
    }
}

/// The interval-search driver.
pub struct IntervalSearch {
    /// Hyper-parameters.
    pub config: SearchConfig,
    /// Latency table providing `t(w_n)`.
    pub lut: LatencyLut,
}

impl IntervalSearch {
    /// Builds a driver from a config and a pre-collected LUT.
    pub fn new(config: SearchConfig, lut: LatencyLut) -> Self {
        IntervalSearch { config, lut }
    }

    /// Runs Algorithm 1 on `model`, updating `store` in place, on the
    /// shared [`GuardedLoop`] (step rollback with LR backoff, per-epoch
    /// checkpoints, resume).
    ///
    /// Every slot's `t(w_n)` is looked up before training starts: a slot
    /// whose key the LUT never collected is [`DefconError::MissingKey`]. A
    /// `robust.lr_backoff` outside `(0, 1]` is a `robust-config`
    /// [`DefconError::Constraint`] before the first step, and a step still
    /// non-finite after `robust.max_step_retries` retries is
    /// [`DefconError::RetriesExhausted`]. Unfaulted, the arithmetic is that
    /// of the plain unguarded loop.
    ///
    /// A resumed run is byte-identical to an uninterrupted one for models
    /// whose `forward_loss` is a pure function of `(store, batch,
    /// temperature)`; models holding private RNG state (e.g. Gumbel noise
    /// streams) reproduce the uninterrupted trajectory only up to that
    /// noise.
    pub fn run<M: SearchModel>(
        &self,
        model: &mut M,
        store: &mut ParamStore,
        robust: &RobustConfig,
    ) -> Result<SearchOutcome, DefconError> {
        let run_span = obs::span_with("search.run", || {
            vec![
                ("slots", Json::from(model.num_slots())),
                ("search_epochs", Json::from(self.config.search_epochs)),
                ("finetune_epochs", Json::from(self.config.finetune_epochs)),
                (
                    "target_latency_ms",
                    Json::from(self.config.target_latency_ms as f64),
                ),
                ("beta", Json::from(self.config.beta as f64)),
            ]
        });
        let lat: Vec<f32> = (0..model.num_slots())
            .map(|i| Ok(self.lut.dcn_overhead_ms(&model.latency_key(i))? as f32))
            .collect::<Result<_, DefconError>>()?;
        let opt = Sgd::new(self.config.lr, 0.9, 0.0);
        let poison = (model.num_slots() > 0).then(|| model.alpha(0));
        let mut run = GuardedLoop::start(SEARCH_SITE, robust, opt, store, poison)?;

        // --- Interval search phase (Algorithm 1, top loop). ---
        for epoch in 0..self.config.search_epochs {
            if run.done(epoch) {
                continue;
            }
            let tau = self.config.temperature.at(epoch);
            model.set_temperature(tau);
            let epoch_span = obs::span_with("search.epoch", || {
                vec![
                    ("epoch", Json::from(epoch)),
                    ("phase", Json::str("search")),
                    ("tau", Json::from(tau as f64)),
                ]
            });
            for iter in 0..self.config.iters_per_epoch {
                let batch = epoch * self.config.iters_per_epoch + iter;
                self.step(&mut run, model, store, Some(&lat), batch)?;
            }
            run.end_epoch(store, epoch_span)?;
        }

        // --- Select layer type by the magnitude of α. ---
        // `freeze` is a pure function of the α values in the store, so a
        // resumed run re-derives the same choices the original would have.
        let choices = model.freeze(store);
        let dcn_overhead_ms: f64 = choices
            .iter()
            .zip(lat.iter())
            .filter(|(c, _)| **c == LayerChoice::Deformable)
            .map(|(_, &t)| t as f64)
            .sum();

        // --- Fine-tune the result architecture (Algorithm 1, bottom loop). ---
        for epoch in 0..self.config.finetune_epochs {
            if run.done(self.config.search_epochs + epoch) {
                continue;
            }
            let epoch_span = obs::span_with("search.epoch", || {
                vec![
                    ("epoch", Json::from(self.config.search_epochs + epoch)),
                    ("phase", Json::str("finetune")),
                ]
            });
            for iter in 0..self.config.iters_per_epoch {
                let batch = epoch * self.config.iters_per_epoch + iter;
                run.final_loss = self.step(&mut run, model, store, None, batch)?;
            }
            run.end_epoch(store, epoch_span)?;
        }

        run_span.record("final_loss", Json::from(run.final_loss as f64));
        run_span.record("dcn_overhead_ms", Json::from(dcn_overhead_ms));
        Ok(SearchOutcome {
            choices,
            final_loss: run.final_loss,
            dcn_overhead_ms,
            loss_history: run.loss_history,
        })
    }

    /// One guarded step on mini-batch `batch`; in the search phase `lat`
    /// holds the per-slot latencies the penalty is computed over. Returns
    /// the task-loss value.
    fn step<M: SearchModel>(
        &self,
        run: &mut GuardedLoop,
        model: &mut M,
        store: &mut ParamStore,
        lat: Option<&[f32]>,
        batch: usize,
    ) -> Result<f32, DefconError> {
        let mut penalty_val = None;
        let task_val = run.step(
            store,
            ("batch", batch),
            || format!("interval-search step on batch {batch}"),
            |tape, store| {
                let task = model.forward_loss(tape, store, batch);
                let Some(lat) = lat else {
                    return (task, task);
                };
                let alphas: Vec<Var> = (0..model.num_slots())
                    .map(|i| tape.param(store, model.alpha(i)))
                    .collect();
                let penalty =
                    ops::latency_penalty(tape, &alphas, lat, self.config.target_latency_ms);
                penalty_val = Some(tape.value(penalty).data()[0]);
                let weighted = ops::scale(tape, penalty, self.config.beta);
                (task, ops::add(tape, task, weighted))
            },
        )?;
        obs::event_with("search.step", || {
            let mut args = vec![
                ("batch", Json::from(batch)),
                ("task_loss", Json::from(task_val as f64)),
            ];
            if let Some(p) = penalty_val {
                args.push(("lut_penalty", Json::from(p as f64)));
            }
            args
        });
        Ok(task_val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::{DeviceConfig, Gpu};
    use defcon_kernels::op::{OffsetPredictorKind, OpFamily, SamplingMethod};
    use defcon_nn::loss;
    use defcon_nn::modules::{DualPathConv, Module};
    use defcon_support::ckpt;
    use defcon_support::fault;
    use defcon_tensor::sample::DeformConv2dParams;
    use defcon_tensor::Tensor;

    /// A 2-slot synthetic supernet on a task where *deformation helps*:
    /// the target is the input sampled at a constant spatial shift, which a
    /// DCN can express exactly and a rigid 3×3 conv cannot.
    struct ToyNet {
        slots: Vec<DualPathConv>,
        data: Vec<(Tensor, Tensor)>,
        /// Per-slot LUT keys (both [`TOY_KEY`] unless a test says otherwise).
        keys: [LatencyKey; 2],
    }

    /// The latency key every [`tiny_lut`] tabulates.
    const TOY_KEY: LatencyKey = LatencyKey {
        c_in: 16,
        c_out: 16,
        h: 16,
        w: 16,
        stride: 1,
    };

    impl ToyNet {
        fn new(store: &mut ParamStore) -> Self {
            let p = DeformConv2dParams::same3x3();
            let slots = vec![
                DualPathConv::new(store, "s0", 1, 1, p, true, 1),
                DualPathConv::new(store, "s1", 1, 1, p, true, 2),
            ];
            // Target: identity shifted by (2, 1) — outside a 3x3 receptive
            // field for a single layer.
            let mut data = Vec::new();
            for seed in 0..4u64 {
                let x = Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, 100 + seed);
                let mut y = Tensor::zeros(&[1, 1, 8, 8]);
                for yy in 0..8usize {
                    for xx in 0..8usize {
                        let (sy, sx) = (yy + 2, xx + 1);
                        if sy < 8 && sx < 8 {
                            *y.at4_mut(0, 0, yy, xx) = x.at4(0, 0, sy, sx);
                        }
                    }
                }
                data.push((x, y));
            }
            ToyNet {
                slots,
                data,
                keys: [TOY_KEY; 2],
            }
        }
    }

    impl SearchModel for ToyNet {
        fn num_slots(&self) -> usize {
            self.slots.len()
        }
        fn alpha(&self, i: usize) -> ParamId {
            self.slots[i].alpha
        }
        fn latency_key(&self, i: usize) -> LatencyKey {
            self.keys[i]
        }
        fn set_temperature(&mut self, tau: f32) {
            for s in &mut self.slots {
                s.tau = tau;
            }
        }
        fn forward_loss(&mut self, tape: &mut Tape, store: &ParamStore, batch: usize) -> Var {
            let (x, y) = &self.data[batch % self.data.len()];
            let mut h = tape.input(x.clone());
            for s in &mut self.slots {
                h = s.forward(tape, store, h);
            }
            loss::mse(tape, h, y)
        }
        fn freeze(&mut self, store: &ParamStore) -> Vec<LayerChoice> {
            self.slots.iter_mut().map(|s| s.freeze(store)).collect()
        }
    }

    fn tiny_lut() -> LatencyLut {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        LatencyLut::build(
            &gpu,
            &[TOY_KEY],
            SamplingMethod::SoftwareBilinear,
            OffsetPredictorKind::Standard,
            OpFamily::DcnV1,
        )
    }

    #[test]
    fn search_runs_and_freezes() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let cfg = SearchConfig {
            search_epochs: 3,
            finetune_epochs: 2,
            iters_per_epoch: 4,
            ..Default::default()
        };
        let search = IntervalSearch::new(cfg, tiny_lut());
        let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
        assert_eq!(out.choices.len(), 2);
        assert_eq!(out.loss_history.len(), 5);
        assert_eq!(out.layout().len(), 2);
        // After freezing, the DCN overhead is the sum over chosen slots.
        let per_slot = search.lut.dcn_overhead_ms(&net.latency_key(0))?;
        assert!((out.dcn_overhead_ms - per_slot * out.num_dcn() as f64).abs() < 1e-9);
        Ok(())
    }

    /// A slot whose key the LUT never collected is a typed error before
    /// any training step, never a panic and never a free layer.
    #[test]
    fn untabulated_slot_is_a_missing_key_error() {
        let _quiet = fault::quiesce();
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        net.keys[1] = LatencyKey {
            stride: 2,
            ..TOY_KEY
        };
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let err = search
            .run(&mut net, &mut store, &RobustConfig::default())
            .err();
        assert!(
            matches!(&err, Some(DefconError::MissingKey { what }) if what.contains("stride: 2")),
            "{err:?}"
        );
    }

    #[test]
    fn loss_improves_over_search() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let cfg = SearchConfig {
            search_epochs: 6,
            finetune_epochs: 6,
            iters_per_epoch: 8,
            lr: 0.1,
            ..Default::default()
        };
        let search = IntervalSearch::new(cfg, tiny_lut());
        let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
        let first = out.loss_history[0];
        let last = *out.loss_history.last().unwrap();
        assert!(last < first, "loss should fall: {first} -> {last}");
        Ok(())
    }

    /// The search space is operator-family aware: a LUT built with
    /// [`LatencyLut::build`] for a family prices each slot with that family's
    /// deformable overhead, so the per-slot `t(w)` the penalty gradient
    /// sees — and the frozen outcome's `dcn_overhead_ms` accounting —
    /// order v1 < v2 < v3 on the texture path.
    #[test]
    fn family_aware_lut_flows_into_the_search_space() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let mut overheads = Vec::new();
        for family in OpFamily::all() {
            let lut = LatencyLut::build(
                &gpu,
                &[TOY_KEY],
                SamplingMethod::Tex2d,
                OffsetPredictorKind::Standard,
                family,
            );
            let mut store = ParamStore::new();
            let mut net = ToyNet::new(&mut store);
            let search = IntervalSearch::new(small_cfg(), lut);
            let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
            let per_slot = search.lut.dcn_overhead_ms(&net.latency_key(0))?;
            // The driver prices slots through the f32 `lat` vector, so the
            // accounting identity holds at f32 resolution.
            let priced = (per_slot as f32) as f64;
            assert!(
                (out.dcn_overhead_ms - priced * out.num_dcn() as f64).abs() < 1e-9,
                "{family:?}: overhead accounting must use the family LUT"
            );
            overheads.push(per_slot);
        }
        assert!(
            overheads[0] < overheads[1] && overheads[1] < overheads[2],
            "per-slot t(w) must order v1 < v2 < v3: {overheads:?}"
        );
        Ok(())
    }

    #[test]
    fn tight_latency_budget_suppresses_dcns() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        // With a zero-latency target and a huge β, the penalty should push
        // α¹ below α⁰ everywhere → no deformable layers survive.
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let cfg = SearchConfig {
            search_epochs: 8,
            finetune_epochs: 1,
            iters_per_epoch: 6,
            // β must dominate the task gradient given the small per-layer
            // t(w) of this toy LUT (the penalty scales with t²).
            beta: 1e7,
            target_latency_ms: 0.0,
            lr: 0.05,
            ..Default::default()
        };
        let search = IntervalSearch::new(cfg, tiny_lut());
        let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
        assert_eq!(out.num_dcn(), 0, "layout {}", out.layout());
        Ok(())
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("defcon-search-{}-{}", std::process::id(), name));
        p
    }

    fn small_cfg() -> SearchConfig {
        SearchConfig {
            search_epochs: 2,
            finetune_epochs: 2,
            iters_per_epoch: 3,
            ..Default::default()
        }
    }

    #[test]
    fn injected_nan_loss_rolls_back_and_recovers() -> Result<(), DefconError> {
        use defcon_support::fault::{FaultPlan, Schedule};
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let _armed = fault::arm(FaultPlan::new(31).point("search.loss", Schedule::Nth(1)));
        let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
        assert_eq!(fault::log(), vec!["search.loss#1"]);
        assert!(out.loss_history.iter().all(|l| l.is_finite()));
        assert!(out.final_loss.is_finite());
        Ok(())
    }

    #[test]
    fn injected_alpha_grad_nan_rolls_back_and_recovers() -> Result<(), DefconError> {
        use defcon_support::fault::{FaultPlan, Schedule};
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let _armed = fault::arm(FaultPlan::new(32).point("search.alpha_grad", Schedule::Nth(0)));
        let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
        assert_eq!(fault::log(), vec!["search.alpha_grad#0"]);
        assert!(out.final_loss.is_finite());
        // The rollback path backed the LR off; the store must hold no NaNs.
        assert!(store.values_finite());
        Ok(())
    }

    #[test]
    fn persistent_nan_loss_exhausts_retries_into_typed_error() {
        use defcon_support::error::DefconError;
        use defcon_support::fault::{FaultPlan, Schedule};
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let _armed = fault::arm(FaultPlan::new(33).point("search.loss", Schedule::Always));
        let err = search
            .run(&mut net, &mut store, &RobustConfig::default())
            .unwrap_err();
        match err {
            DefconError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 4),
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    /// A backoff factor `Sgd::backoff` would reject is a typed config error
    /// before the first step — never a panic at the first rollback.
    #[test]
    fn zero_lr_backoff_is_a_typed_constraint_before_any_step() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let _armed = fault::arm(FaultPlan::new(34).point("search.loss", Schedule::Nth(0)));
        let robust = RobustConfig {
            lr_backoff: 0.0,
            ..Default::default()
        };
        let err = search.run(&mut net, &mut store, &robust).err();
        assert!(
            matches!(&err, Some(DefconError::Constraint { what, .. }) if what == "robust-config"),
            "{err:?}"
        );
        assert!(fault::log().is_empty(), "no step may run");
    }

    #[test]
    fn completed_checkpoint_short_circuits_resume() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let path = tmp_path("complete");
        let _ = std::fs::remove_file(&path);
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let first = search.run(&mut net, &mut store, &robust)?;
        // Resume from the completed checkpoint: every epoch is skipped, so
        // the outcome is reproduced exactly even though the model's Gumbel
        // noise stream was never replayed.
        let mut store2 = ParamStore::new();
        let mut net2 = ToyNet::new(&mut store2);
        let second = search.run(&mut net2, &mut store2, &robust)?;
        assert_eq!(first.loss_history, second.loss_history);
        assert_eq!(first.final_loss, second.final_loss);
        assert_eq!(first.choices, second.choices);
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn corrupt_checkpoint_is_discarded_and_run_restarts() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let path = tmp_path("corrupt");
        std::fs::write(&path, "deadbeef\nnot the payload").unwrap();
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let out = search.run(&mut net, &mut store, &robust)?;
        assert_eq!(out.loss_history.len(), 4);
        // The run overwrote the corrupt file with a valid checkpoint.
        assert!(ckpt::load(&path)?.is_some());
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn stale_checkpoint_from_other_model_restarts_cleanly() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        // CRC-valid but for a different parameter set: resume must degrade
        // to a fresh start without leaving a partial load in the store.
        let path = tmp_path("stale");
        let mut other_store = ParamStore::new();
        other_store.add("unrelated", Tensor::zeros(&[3]), false);
        let doc = Json::obj(vec![
            ("epochs_done", Json::from(1usize)),
            ("final_loss", Json::Null),
            ("loss_history", Json::Arr(vec![Json::from(0.5)])),
            ("opt_steps", Json::from(3usize)),
            ("opt_lr_scale", Json::from(1.0)),
            ("params", other_store.state_to_json()),
        ]);
        ckpt::save(&path, &doc.to_string())?;
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let search = IntervalSearch::new(small_cfg(), tiny_lut());
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let out = search.run(&mut net, &mut store, &robust)?;
        assert_eq!(out.loss_history.len(), 4, "must run all epochs fresh");
        assert!(store.values_finite());
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn loose_budget_lets_dcns_win_on_deformed_task() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        // With no pressure (β=0) on a task built around spatial shift, at
        // least one slot should pick the deformable path.
        let mut store = ParamStore::new();
        let mut net = ToyNet::new(&mut store);
        let cfg = SearchConfig {
            search_epochs: 10,
            finetune_epochs: 1,
            iters_per_epoch: 8,
            beta: 0.0,
            lr: 0.1,
            ..Default::default()
        };
        let search = IntervalSearch::new(cfg, tiny_lut());
        let out = search.run(&mut net, &mut store, &RobustConfig::default())?;
        assert!(
            out.num_dcn() >= 1,
            "expected DCN to win somewhere, layout {}",
            out.layout()
        );
        Ok(())
    }
}
