//! Training / evaluation drivers and the interval-search supernet adapter.

use crate::backbone::BackboneConfig;
use crate::dataset::{batch_images, DeformedShapesConfig, Sample};
use crate::detector::{
    assign_anchors, build_anchors, decode_detections, detection_loss, Anchor, Assignment,
    YolactLite, NUM_CLASSES,
};
use crate::map::{evaluate_map, MapResult};
use defcon_core::lut::LatencyKey;
use defcon_core::search::SearchModel;
use defcon_nn::graph::{ParamId, ParamStore, Tape, Var};
use defcon_nn::modules::LayerChoice;
use defcon_nn::optim::{GuardedLoop, LoopSite, RobustConfig, Sgd};
use defcon_support::error::DefconError;
use defcon_support::json::Json;
use defcon_support::obs;
use std::ops::Range;

/// Training hyper-parameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate (paper: 1e-2, step decay).
    pub lr: f32,
    /// Training images.
    pub train_size: usize,
    /// Validation images.
    pub val_size: usize,
    /// Dataset generator.
    pub dataset: DeformedShapesConfig,
    /// Seed for data generation.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.02,
            train_size: 64,
            val_size: 32,
            dataset: DeformedShapesConfig::default(),
            seed: 0x5EED,
        }
    }
}

/// A dataset split with precomputed anchor assignments.
pub struct PreparedData {
    /// The samples.
    pub samples: Vec<Sample>,
    /// Per-sample anchor assignments.
    pub assignments: Vec<Assignment>,
    /// The anchor grid.
    pub anchors: Vec<Anchor>,
}

impl PreparedData {
    /// Records `det`'s forward pass over samples `range` on `tape` and
    /// returns the mini-batch's detection loss.
    fn batch_loss(
        &self,
        det: &mut YolactLite,
        tape: &mut Tape,
        store: &ParamStore,
        range: Range<usize>,
    ) -> Var {
        let samples = &self.samples[range.clone()];
        let x = tape.input(batch_images(samples));
        let out = det.forward(tape, store, x);
        detection_loss(tape, &out, &self.anchors, &self.assignments[range], samples)
    }
}

/// Generates and assigns a split.
pub fn prepare(cfg: &DeformedShapesConfig, n: usize, seed: u64) -> PreparedData {
    let samples = cfg.generate(n, seed);
    let feat = cfg.size / crate::detector::STRIDE;
    let anchors = build_anchors(feat, feat);
    let assignments = samples
        .iter()
        .map(|s| assign_anchors(&anchors, s))
        .collect();
    PreparedData {
        samples,
        assignments,
        anchors,
    }
}

/// The trainer's fault points and obs events on the shared [`GuardedLoop`].
const TRAINER_SITE: LoopSite = LoopSite {
    loss_fault: "trainer.loss",
    grad_fault: "trainer.grad",
    rollback_event: "trainer.rollback",
    checkpoint_event: "trainer.checkpoint",
};

/// Trains `det` on freshly generated data; returns per-epoch mean losses.
///
/// `offset_reg > 0` adds an L2 penalty of that weight on every DCN layer's
/// predicted offsets — the *regularized training* alternative to hard
/// bounding (paper Table V). Training runs on the shared [`GuardedLoop`]
/// (step rollback with LR backoff, per-epoch checkpoints, resume).
///
/// BatchNorm running statistics and Gumbel noise streams live outside the
/// checkpointed store, so a mid-run resume continues training correctly
/// but does not replay the uninterrupted trajectory bit-for-bit.
/// Restarting from scratch (the corrupt-checkpoint path) with a freshly
/// built detector *is* bit-reproducible, since every source of randomness
/// is seeded.
pub fn train_detector(
    det: &mut YolactLite,
    store: &mut ParamStore,
    cfg: &TrainConfig,
    offset_reg: f32,
    robust: &RobustConfig,
) -> Result<Vec<f32>, DefconError> {
    let run_span = obs::span_with("trainer.run", || {
        vec![
            ("epochs", Json::from(cfg.epochs)),
            ("train_size", Json::from(cfg.train_size)),
            ("batch_size", Json::from(cfg.batch_size)),
            ("offset_reg", Json::from(offset_reg as f64)),
        ]
    });
    let data = prepare(&cfg.dataset, cfg.train_size, cfg.seed);
    let steps = cfg.epochs * cfg.train_size.div_ceil(cfg.batch_size);
    let opt = Sgd::paper_schedule(cfg.lr, steps);
    det.set_training(true);
    let poison = (!store.is_empty()).then(|| store.param_id(0));
    let mut run = GuardedLoop::start(TRAINER_SITE, robust, opt, store, poison)?;

    for epoch in 0..cfg.epochs {
        if run.done(epoch) {
            continue;
        }
        let epoch_span = obs::span_with("trainer.epoch", || vec![("epoch", Json::from(epoch))]);
        for start in (0..cfg.train_size).step_by(cfg.batch_size) {
            let end = (start + cfg.batch_size).min(cfg.train_size);
            run.step(
                store,
                ("samples_start", start),
                || format!("training step on samples {start}..{end}"),
                |tape, store| {
                    let mut loss = data.batch_loss(det, tape, store, start..end);
                    if offset_reg > 0.0 {
                        for off in det.backbone.dcn_offsets() {
                            let pen = defcon_nn::loss::l2_penalty(tape, off, offset_reg);
                            loss = defcon_nn::ops::add(tape, loss, pen);
                        }
                    }
                    (loss, loss)
                },
            )?;
        }
        run.end_epoch(store, epoch_span)?;
    }
    run_span.record("epochs_done", Json::from(run.loss_history.len()));
    Ok(run.loss_history)
}

/// Runs inference on a validation split and computes box/mask mAP.
pub fn evaluate_detector(
    det: &mut YolactLite,
    store: &ParamStore,
    samples: &[Sample],
    score_threshold: f32,
) -> MapResult {
    det.set_training(false);
    let img_size = samples[0].image.dims()[3];
    let mut all_dets = Vec::with_capacity(samples.len());
    for s in samples {
        let mut tape = Tape::new();
        let x = tape.input(s.image.clone());
        let out = det.forward(&mut tape, store, x);
        let dets = decode_detections(
            tape.value(out.cls),
            tape.value(out.boxes),
            tape.value(out.coeffs),
            tape.value(out.protos),
            0,
            img_size,
            score_threshold,
            0.5,
        );
        all_dets.push(dets);
    }
    det.set_training(true);
    evaluate_map(samples, &all_dets, NUM_CLASSES)
}

/// Convenience: build → train (unregularized, default robustness) →
/// evaluate one backbone layout; returns the trained detector and its
/// validation mAP.
pub fn train_and_eval(
    backbone: BackboneConfig,
    cfg: &TrainConfig,
) -> Result<(YolactLite, ParamStore, MapResult), DefconError> {
    let mut store = ParamStore::new();
    let mut det = YolactLite::new(&mut store, backbone);
    train_detector(&mut det, &mut store, cfg, 0.0, &RobustConfig::default())?;
    let val = prepare(&cfg.dataset, cfg.val_size, cfg.seed ^ 0xFFFF_0000).samples;
    let map = evaluate_detector(&mut det, &store, &val, 0.05);
    Ok((det, store, map))
}

/// The supernet adapter: plugs a `YolactLite` with searchable backbone
/// slots into `defcon-core`'s interval search.
pub struct DetectorSuperNet {
    /// The detector under search.
    pub detector: YolactLite,
    /// Training data for the search phase.
    pub data: PreparedData,
    /// Mini-batch size.
    pub batch_size: usize,
    searchable_blocks: Vec<usize>,
}

impl DetectorSuperNet {
    /// Builds the supernet (backbone slots should be `SlotKind::Searchable`).
    pub fn new(
        store: &mut ParamStore,
        backbone: BackboneConfig,
        data: PreparedData,
        batch_size: usize,
    ) -> Self {
        let detector = YolactLite::new(store, backbone);
        let searchable_blocks = detector.backbone.searchable_slots();
        DetectorSuperNet {
            detector,
            data,
            batch_size,
            searchable_blocks,
        }
    }
}

impl SearchModel for DetectorSuperNet {
    fn num_slots(&self) -> usize {
        self.searchable_blocks.len()
    }

    fn alpha(&self, i: usize) -> ParamId {
        self.detector.backbone.alpha_of(self.searchable_blocks[i])
    }

    fn latency_key(&self, i: usize) -> LatencyKey {
        self.detector
            .backbone
            .latency_key_of(self.searchable_blocks[i])
    }

    fn set_temperature(&mut self, tau: f32) {
        self.detector.backbone.set_temperature(tau);
    }

    fn forward_loss(&mut self, tape: &mut Tape, store: &ParamStore, batch: usize) -> Var {
        let n = self.data.samples.len();
        let start = (batch * self.batch_size) % n;
        let end = (start + self.batch_size).min(n);
        self.data
            .batch_loss(&mut self.detector, tape, store, start..end)
    }

    fn freeze(&mut self, store: &ParamStore) -> Vec<LayerChoice> {
        self.detector.backbone.freeze(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::SlotKind;
    use defcon_core::lut::LatencyLut;
    use defcon_core::search::{IntervalSearch, SearchConfig};
    use defcon_gpusim::{DeviceConfig, Gpu};
    use defcon_kernels::op::{OffsetPredictorKind, OpFamily, SamplingMethod};
    use defcon_support::{ckpt, fault};
    use std::path::PathBuf;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 4,
            train_size: 16,
            val_size: 8,
            ..Default::default()
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("defcon-trainer-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn injected_nan_loss_rolls_back_and_training_recovers() -> Result<(), DefconError> {
        use defcon_support::fault::{FaultPlan, Schedule};
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let _armed = fault::arm(FaultPlan::new(41).point("trainer.loss", Schedule::Nth(1)));
        let history = train_detector(
            &mut det,
            &mut store,
            &quick_cfg(),
            0.0,
            &RobustConfig::default(),
        )?;
        assert_eq!(fault::log(), vec!["trainer.loss#1"]);
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|l| l.is_finite()), "{history:?}");
        assert!(store.values_finite());
        Ok(())
    }

    #[test]
    fn injected_nan_grad_rolls_back_and_training_recovers() -> Result<(), DefconError> {
        use defcon_support::fault::{FaultPlan, Schedule};
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let _armed = fault::arm(FaultPlan::new(42).point("trainer.grad", Schedule::Nth(0)));
        let history = train_detector(
            &mut det,
            &mut store,
            &quick_cfg(),
            0.0,
            &RobustConfig::default(),
        )?;
        assert_eq!(fault::log(), vec!["trainer.grad#0"]);
        assert!(history.iter().all(|l| l.is_finite()));
        assert!(store.values_finite() && store.grads_finite());
        Ok(())
    }

    #[test]
    fn persistent_nan_loss_exhausts_retries() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone.clone());
        let _armed = fault::arm(FaultPlan::new(43).point("trainer.loss", Schedule::Always));
        let err = train_detector(
            &mut det,
            &mut store,
            &quick_cfg(),
            0.0,
            &RobustConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DefconError::RetriesExhausted { attempts: 4, .. }
        ));
        // The build → train → evaluate convenience surfaces the same typed
        // error instead of panicking.
        let err = train_and_eval(backbone, &quick_cfg()).err();
        assert!(
            matches!(err, Some(DefconError::RetriesExhausted { attempts: 4, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_checkpoint_restarts_and_reproduces_the_uninterrupted_run(
    ) -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let mk = || {
            let backbone =
                BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
            let mut store = ParamStore::new();
            let det = YolactLite::new(&mut store, backbone);
            (store, det)
        };
        let cfg = quick_cfg();
        // Uninterrupted reference run, no checkpointing.
        let (mut store_a, mut det_a) = mk();
        let reference = train_detector(
            &mut det_a,
            &mut store_a,
            &cfg,
            0.0,
            &RobustConfig::default(),
        )?;
        // A truncated checkpoint (CRC mismatch) must be discarded; the
        // restart from a fresh seeded model reproduces the reference
        // run's metrics exactly.
        let path = tmp_path("truncated");
        std::fs::write(&path, "0c0ffee0\n{\"epochs_done\":").unwrap();
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let (mut store_b, mut det_b) = mk();
        let recovered = train_detector(&mut det_b, &mut store_b, &cfg, 0.0, &robust)?;
        assert_eq!(reference, recovered, "restart must be bit-reproducible");
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn completed_checkpoint_resumes_without_retraining() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let path = tmp_path("complete");
        let _ = std::fs::remove_file(&path);
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let cfg = quick_cfg();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone.clone());
        let first = train_detector(&mut det, &mut store, &cfg, 0.0, &robust)?;
        // Fresh model + completed checkpoint: every epoch is skipped and
        // the stored history and parameters are returned as-is.
        let mut store2 = ParamStore::new();
        let mut det2 = YolactLite::new(&mut store2, backbone);
        let resumed = train_detector(&mut det2, &mut store2, &cfg, 0.0, &robust)?;
        assert_eq!(first, resumed);
        for i in 0..store.len() {
            assert_eq!(
                store.value(store.param_id(i)).data(),
                store2.value(store2.param_id(i)).data(),
                "resumed parameters must match the checkpointed run"
            );
        }
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    /// Trainer checkpoints written before the search and the trainer
    /// shared one format carry no `final_loss` key; they still resume, and
    /// a completed one is returned as stored without a training step.
    #[test]
    fn checkpoint_without_final_loss_resumes_without_retraining() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let path = tmp_path("no-final-loss");
        let cfg = quick_cfg();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut saved = ParamStore::new();
        let _ = YolactLite::new(&mut saved, backbone.clone());
        saved.value_mut(saved.param_id(0)).data_mut()[0] = 0.125;
        // Loss values no training run produces, so a retrain would show.
        let history = vec![9.5f32, 8.5];
        let doc = Json::obj(vec![
            ("epochs_done", Json::from(history.len())),
            (
                "loss_history",
                Json::Arr(history.iter().map(|&v| Json::from(v as f64)).collect()),
            ),
            ("opt_steps", Json::from(8usize)),
            ("opt_lr_scale", Json::from(1.0)),
            ("params", saved.state_to_json()),
        ]);
        ckpt::save(&path, &doc.to_string())?;
        let robust = RobustConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let resumed = train_detector(&mut det, &mut store, &cfg, 0.0, &robust)?;
        assert_eq!(resumed, history);
        assert_eq!(
            store.state_to_json().to_string(),
            saved.state_to_json().to_string(),
            "resumed parameters must be the checkpointed ones"
        );
        let _ = std::fs::remove_file(&path);
        Ok(())
    }

    #[test]
    fn training_reduces_loss_and_eval_runs() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let cfg = quick_cfg();
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let history = train_detector(&mut det, &mut store, &cfg, 0.0, &RobustConfig::default())?;
        assert_eq!(history.len(), 2);
        assert!(history[1] < history[0], "loss {history:?}");
        let val = prepare(&cfg.dataset, cfg.val_size, 99).samples;
        let map = evaluate_detector(&mut det, &store, &val, 0.05);
        assert!(map.box_map >= 0.0 && map.box_map <= 100.0);
        Ok(())
    }

    #[test]
    fn supernet_search_end_to_end() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Searchable));
        let mut store = ParamStore::new();
        let data = prepare(&DeformedShapesConfig::default(), 8, 42);
        let mut net = DetectorSuperNet::new(&mut store, backbone, data, 4);
        assert_eq!(net.num_slots(), 5);

        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let keys = net.detector.backbone.all_latency_keys();
        let lut = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::Tex2dPlusPlus,
            OffsetPredictorKind::Lightweight,
            OpFamily::DcnV1,
        );
        let cfg = SearchConfig {
            search_epochs: 2,
            finetune_epochs: 1,
            iters_per_epoch: 2,
            ..Default::default()
        };
        let out =
            IntervalSearch::new(cfg, lut).run(&mut net, &mut store, &RobustConfig::default())?;
        assert_eq!(out.choices.len(), 5);
        assert!(!net.detector.backbone.layout().contains('?'));
        Ok(())
    }
}
