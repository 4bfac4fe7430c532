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
use defcon_nn::optim::Sgd;
use defcon_support::ckpt;
use defcon_support::error::DefconError;
use defcon_support::fault;
use defcon_support::json::{Json, JsonError};
use defcon_support::obs;
use std::path::PathBuf;

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

/// Trains `det` on freshly generated data; returns per-epoch mean losses.
pub fn train_detector(det: &mut YolactLite, store: &mut ParamStore, cfg: &TrainConfig) -> Vec<f32> {
    train_detector_reg(det, store, cfg, 0.0)
}

/// [`train_detector`] with an L2 penalty of `offset_reg` on every DCN
/// layer's predicted offsets — the *regularized training* alternative to
/// hard bounding (paper Table V).
pub fn train_detector_reg(
    det: &mut YolactLite,
    store: &mut ParamStore,
    cfg: &TrainConfig,
    offset_reg: f32,
) -> Vec<f32> {
    train_detector_robust(det, store, cfg, offset_reg, &RobustTrainConfig::default())
        .expect("detector training could not recover from non-finite steps")
}

/// Robustness knobs for [`train_detector_robust`].
#[derive(Clone, Debug)]
pub struct RobustTrainConfig {
    /// Where to checkpoint after every epoch (atomic write + CRC). `None`
    /// disables checkpointing. An existing valid checkpoint at this path
    /// is resumed (completed epochs are skipped); a corrupt or truncated
    /// one is discarded and training restarts from scratch — with a fresh
    /// model this deterministically reproduces the uninterrupted run.
    pub checkpoint: Option<PathBuf>,
    /// Extra attempts per mini-batch step after a non-finite loss or
    /// gradient, before [`DefconError::RetriesExhausted`].
    pub max_step_retries: usize,
    /// LR backoff factor applied via [`Sgd::backoff`] on every rollback.
    pub lr_backoff: f32,
}

impl Default for RobustTrainConfig {
    fn default() -> Self {
        RobustTrainConfig {
            checkpoint: None,
            max_step_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// [`train_detector_reg`] with graceful degradation: non-finite loss or
/// gradient guards with snapshot rollback + LR backoff per mini-batch
/// step, and atomic per-epoch checkpoint/resume.
///
/// Checkpoints carry the `ParamStore` (values + momentum) and the LR
/// schedule, which is everything the optimizer needs; BatchNorm running
/// statistics and Gumbel noise streams live outside the store, so a
/// mid-run resume continues training correctly but does not replay the
/// uninterrupted trajectory bit-for-bit. Restarting from scratch (the
/// corrupt-checkpoint path) with a freshly built detector *is*
/// bit-reproducible, since every source of randomness is seeded.
pub fn train_detector_robust(
    det: &mut YolactLite,
    store: &mut ParamStore,
    cfg: &TrainConfig,
    offset_reg: f32,
    robust: &RobustTrainConfig,
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
    let mut opt = Sgd::paper_schedule(cfg.lr, steps);
    det.set_training(true);
    let mut history: Vec<f32> = Vec::with_capacity(cfg.epochs);

    if let Some(path) = &robust.checkpoint {
        if let Some(payload) = ckpt::load_or_discard(path)? {
            let pre = store.snapshot();
            match parse_train_checkpoint(&payload, store) {
                Ok((hist, opt_steps, opt_lr_scale)) => {
                    history = hist;
                    opt.restore_schedule(opt_steps, opt_lr_scale);
                }
                // CRC-valid but stale (e.g. different architecture):
                // degrade to a fresh start, discarding any partial load.
                Err(_) => store.restore(&pre),
            }
        }
    }

    for epoch in 0..cfg.epochs {
        if history.len() > epoch {
            continue; // resumed past this epoch
        }
        let epoch_span = obs::span_with("trainer.epoch", || vec![("epoch", Json::from(epoch))]);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk_start in (0..cfg.train_size).step_by(cfg.batch_size) {
            let end = (chunk_start + cfg.batch_size).min(cfg.train_size);
            let samples = &data.samples[chunk_start..end];
            let assignments = &data.assignments[chunk_start..end];
            let mut step_ok = false;
            for attempt in 0..=robust.max_step_retries {
                let snap = store.snapshot();
                store.zero_grads();
                let mut tape = Tape::new();
                let x = tape.input(batch_images(samples));
                let out = det.forward(&mut tape, store, x);
                let mut loss = detection_loss(&mut tape, &out, &data.anchors, assignments, samples);
                if offset_reg > 0.0 {
                    for off in det.backbone.dcn_offsets() {
                        let pen = defcon_nn::loss::l2_penalty(&mut tape, off, offset_reg);
                        loss = defcon_nn::ops::add(&mut tape, loss, pen);
                    }
                }
                let mut loss_val = tape.value(loss).data()[0];
                fault::nonfinite_f32("trainer.loss", &mut loss_val);
                if loss_val.is_finite() {
                    tape.backward(loss);
                    tape.write_param_grads(store);
                    if fault::fires("trainer.grad") && !store.is_empty() {
                        // Inject an exploded gradient for the guard to catch.
                        let id = store.param_id(0);
                        let poisoned = store.value(id).scale(f32::NAN);
                        store.accumulate_grad(id, &poisoned);
                    }
                    if store.grads_finite() {
                        opt.step(store);
                        epoch_loss += loss_val;
                        step_ok = true;
                        break;
                    }
                }
                // Degradation path: roll back parameters and momentum,
                // gear the LR down, retry the same mini-batch.
                store.restore(&snap);
                opt.backoff(robust.lr_backoff);
                obs::event_with("trainer.rollback", || {
                    vec![
                        ("samples_start", Json::from(chunk_start)),
                        ("attempt", Json::from(attempt)),
                        ("lr_backoff", Json::from(robust.lr_backoff as f64)),
                    ]
                });
            }
            if !step_ok {
                return Err(DefconError::RetriesExhausted {
                    what: format!(
                        "training step on samples {chunk_start}..{end} (non-finite loss/gradient)"
                    ),
                    attempts: robust.max_step_retries + 1,
                });
            }
            batches += 1;
        }
        let mean_loss = epoch_loss / batches.max(1) as f32;
        epoch_span.record("loss", Json::from(mean_loss as f64));
        drop(epoch_span);
        history.push(mean_loss);
        if let Some(path) = &robust.checkpoint {
            let doc = Json::obj(vec![
                ("epochs_done", Json::from(history.len())),
                (
                    "loss_history",
                    Json::Arr(history.iter().map(|&v| Json::from(v as f64)).collect()),
                ),
                ("opt_steps", Json::from(opt.steps())),
                ("opt_lr_scale", Json::from(opt.lr_scale() as f64)),
                ("params", store.state_to_json()),
            ]);
            ckpt::save(path, &doc.to_string())?;
            obs::event_with("trainer.checkpoint", || {
                vec![("epochs_done", Json::from(history.len()))]
            });
        }
    }
    run_span.record("epochs_done", Json::from(history.len()));
    Ok(history)
}

/// Parses a CRC-valid trainer checkpoint and loads the parameter state
/// into `store`; on error the caller restores a pre-parse snapshot.
fn parse_train_checkpoint(
    payload: &str,
    store: &mut ParamStore,
) -> Result<(Vec<f32>, usize, f32), JsonError> {
    let doc = Json::parse(payload)?;
    let epochs_done = doc
        .field("epochs_done")?
        .as_usize()
        .ok_or_else(|| JsonError::msg("epochs_done must be a non-negative integer"))?;
    let hist = doc
        .field("loss_history")?
        .as_arr()
        .ok_or_else(|| JsonError::msg("loss_history must be an array"))?;
    let mut history = Vec::with_capacity(hist.len());
    for v in hist {
        history.push(
            v.as_f64()
                .ok_or_else(|| JsonError::msg("loss_history entries must be numbers"))?
                as f32,
        );
    }
    if history.len() != epochs_done {
        return Err(JsonError::msg("epochs_done disagrees with loss_history"));
    }
    let opt_steps = doc
        .field("opt_steps")?
        .as_usize()
        .ok_or_else(|| JsonError::msg("opt_steps must be a non-negative integer"))?;
    let opt_lr_scale =
        doc.field("opt_lr_scale")?
            .as_f64()
            .ok_or_else(|| JsonError::msg("opt_lr_scale must be a number"))? as f32;
    store.load_state_json(doc.field("params")?)?;
    Ok((history, opt_steps, opt_lr_scale))
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

/// Convenience: build → train → evaluate one backbone layout; returns the
/// trained detector and its validation mAP.
pub fn train_and_eval(
    backbone: BackboneConfig,
    cfg: &TrainConfig,
) -> (YolactLite, ParamStore, MapResult) {
    let mut store = ParamStore::new();
    let mut det = YolactLite::new(&mut store, backbone);
    train_detector(&mut det, &mut store, cfg);
    let val = prepare(&cfg.dataset, cfg.val_size, cfg.seed ^ 0xFFFF_0000).samples;
    let map = evaluate_detector(&mut det, &store, &val, 0.05);
    (det, store, map)
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
        let samples = &self.data.samples[start..end];
        let assignments = &self.data.assignments[start..end];
        let x = tape.input(batch_images(samples));
        let out = self.detector.forward(tape, store, x);
        detection_loss(tape, &out, &self.data.anchors, assignments, samples)
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
    fn injected_nan_loss_rolls_back_and_training_recovers() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let _armed = fault::arm(FaultPlan::new(41).point("trainer.loss", Schedule::Nth(1)));
        let history = train_detector_robust(
            &mut det,
            &mut store,
            &quick_cfg(),
            0.0,
            &RobustTrainConfig::default(),
        )
        .unwrap();
        assert_eq!(fault::log(), vec!["trainer.loss#1"]);
        assert_eq!(history.len(), 2);
        assert!(history.iter().all(|l| l.is_finite()), "{history:?}");
        assert!(store.values_finite());
    }

    #[test]
    fn injected_nan_grad_rolls_back_and_training_recovers() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let _armed = fault::arm(FaultPlan::new(42).point("trainer.grad", Schedule::Nth(0)));
        let history = train_detector_robust(
            &mut det,
            &mut store,
            &quick_cfg(),
            0.0,
            &RobustTrainConfig::default(),
        )
        .unwrap();
        assert_eq!(fault::log(), vec!["trainer.grad#0"]);
        assert!(history.iter().all(|l| l.is_finite()));
        assert!(store.values_finite() && store.grads_finite());
    }

    #[test]
    fn persistent_nan_loss_exhausts_retries() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let _armed = fault::arm(FaultPlan::new(43).point("trainer.loss", Schedule::Always));
        let err = train_detector_robust(
            &mut det,
            &mut store,
            &quick_cfg(),
            0.0,
            &RobustTrainConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DefconError::RetriesExhausted { attempts: 4, .. }
        ));
    }

    #[test]
    fn truncated_checkpoint_restarts_and_reproduces_the_uninterrupted_run() {
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
        let reference = train_detector_robust(
            &mut det_a,
            &mut store_a,
            &cfg,
            0.0,
            &RobustTrainConfig::default(),
        )
        .unwrap();
        // A truncated checkpoint (CRC mismatch) must be discarded; the
        // restart from a fresh seeded model reproduces the reference
        // run's metrics exactly.
        let path = tmp_path("truncated");
        std::fs::write(&path, "0c0ffee0\n{\"epochs_done\":").unwrap();
        let robust = RobustTrainConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let (mut store_b, mut det_b) = mk();
        let recovered =
            train_detector_robust(&mut det_b, &mut store_b, &cfg, 0.0, &robust).unwrap();
        assert_eq!(reference, recovered, "restart must be bit-reproducible");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn completed_checkpoint_resumes_without_retraining() {
        let _quiet = fault::quiesce();
        let path = tmp_path("complete");
        let _ = std::fs::remove_file(&path);
        let robust = RobustTrainConfig {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        let cfg = quick_cfg();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone.clone());
        let first = train_detector_robust(&mut det, &mut store, &cfg, 0.0, &robust).unwrap();
        // Fresh model + completed checkpoint: every epoch is skipped and
        // the stored history and parameters are returned as-is.
        let mut store2 = ParamStore::new();
        let mut det2 = YolactLite::new(&mut store2, backbone);
        let resumed = train_detector_robust(&mut det2, &mut store2, &cfg, 0.0, &robust).unwrap();
        assert_eq!(first, resumed);
        for i in 0..store.len() {
            assert_eq!(
                store.value(store.param_id(i)).data(),
                store2.value(store2.param_id(i)).data(),
                "resumed parameters must match the checkpointed run"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn training_reduces_loss_and_eval_runs() {
        let _quiet = fault::quiesce();
        let backbone =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
        let cfg = quick_cfg();
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, backbone);
        let history = train_detector(&mut det, &mut store, &cfg);
        assert_eq!(history.len(), 2);
        assert!(history[1] < history[0], "loss {history:?}");
        let val = prepare(&cfg.dataset, cfg.val_size, 99).samples;
        let map = evaluate_detector(&mut det, &store, &val, 0.05);
        assert!(map.box_map >= 0.0 && map.box_map <= 100.0);
    }

    #[test]
    fn supernet_search_end_to_end() {
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
        let out = IntervalSearch::new(cfg, lut).run(&mut net, &mut store);
        assert_eq!(out.choices.len(), 5);
        assert!(!net.detector.backbone.layout().contains('?'));
    }
}
