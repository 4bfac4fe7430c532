//! End-to-end fault-injection suite: every graceful-degradation contract in
//! DESIGN.md §"Fault injection", exercised across crate boundaries with the
//! seeded `defcon_support::fault` harness.
//!
//! Arming is process-global, so **every test here either arms a plan or
//! takes [`fault::quiesce`]** — both hold the arming lock, serializing the
//! tests against each other without any ordering assumptions.

use defcon::core::lut::{LatencyKey, LatencyLut};
use defcon::core::search::{IntervalSearch, SearchConfig, SearchModel, SearchOutcome};
use defcon::gpusim::{BlockTrace, DeviceConfig, Gpu, TraceSink};
use defcon::kernels::op::{
    synthetic_offsets, DeformConvOp, OffsetPredictorKind, OpFamily, SamplingMethod,
};
use defcon::kernels::DeformLayerShape;
use defcon::nn::graph::{ParamId, ParamStore, Tape, Var};
use defcon::nn::loss;
use defcon::nn::modules::LayerChoice;
use defcon::nn::optim::RobustConfig;
use defcon::tensor::Tensor;
use defcon_support::ckpt;
use defcon_support::error::DefconError;
use defcon_support::fault::{self, FaultPlan, Schedule};
use defcon_support::par::ParallelSliceMut;
use std::path::PathBuf;

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("defcon-faultinj-{}-{name}", std::process::id()));
    p
}

// --- support::par: worker-panic band recovery ---------------------------

fn fill_bands(threads: usize) -> Vec<u64> {
    let mut out = vec![0u64; 64];
    out.par_chunks_mut(8)
        .threads(threads)
        .enumerate()
        .for_each(|(i, chunk)| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i as u64 + 1).wrapping_mul(0x9E37_79B9) ^ (j as u64);
            }
        });
    out
}

#[test]
fn worker_panic_band_rerun_is_byte_identical_to_serial() {
    // Reference: fully serial, no faults armed (quiesced by the armed
    // guard below — one scope covers both runs).
    let _armed = fault::arm(FaultPlan::new(71).point("par.band", Schedule::Nth(1)));
    let reference = {
        // threads(1) never spawns workers, so `par.band` cannot fire here.
        fill_bands(1)
    };
    // Parallel run: band 1's worker thread is killed by the injected
    // panic; the band is re-run serially after the parallel phase.
    let recovered = fill_bands(4);
    assert_eq!(fault::log(), vec!["par.band#1"], "fault must have fired");
    assert_eq!(
        reference, recovered,
        "recovered output must be byte-identical"
    );
}

// --- fault harness itself: seeded schedules are byte-reproducible -------

fn drive_fault_log(seed: u64) -> Vec<String> {
    let _armed = fault::arm(
        FaultPlan::new(seed)
            .point("demo.prob", Schedule::Prob(0.4))
            .point("demo.every", Schedule::EveryNth(3)),
    );
    for i in 0..32u64 {
        let _ = fault::fires("demo.prob");
        let _ = fault::fires_at("demo.every", i);
    }
    fault::log()
}

#[test]
fn same_fault_seed_yields_byte_identical_logs_across_runs() {
    let first = drive_fault_log(99);
    let second = drive_fault_log(99);
    assert!(!first.is_empty(), "the schedules above must fire");
    assert_eq!(first, second, "same seed, same plan → same log bytes");
    let other = drive_fault_log(100);
    assert_ne!(first, other, "the Prob schedule must depend on the seed");
}

// --- support::ckpt: torn writes and media rot ---------------------------

#[test]
fn ckpt_load_fault_is_detected_and_discardable() {
    let p = tmp_path("ckpt-load");
    {
        let _quiet = fault::quiesce();
        ckpt::save(&p, "{\"epoch\":3}").unwrap();
    }
    let _armed = fault::arm(FaultPlan::new(53).point("ckpt.load", Schedule::Always));
    assert!(matches!(ckpt::load(&p), Err(DefconError::Corrupt { .. })));
    assert_eq!(ckpt::load_or_discard(&p).unwrap(), None);
    assert_eq!(fault::log(), vec!["ckpt.load#0", "ckpt.load#1"]);
    std::fs::remove_file(&p).unwrap();
}

// --- gpusim: texture-layer limit and device-config constraints ----------

#[test]
fn texture_limit_fault_drives_the_fallback_ladder_to_software() {
    let _armed = fault::arm(FaultPlan::new(61).point("texture.limit", Schedule::Always));
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(16, 16, 12, 12);
    let offsets = synthetic_offsets(&shape, 4.0, 9);
    let op = DeformConvOp {
        method: SamplingMethod::Tex2dPlusPlus,
        ..DeformConvOp::baseline(shape)
    };
    // The shape fits Xavier's limits; only the injected fault makes every
    // texture build fail, so both texture rungs degrade and the software
    // sampler (which builds no textures) carries the launch.
    let fb = op.simulate_deform_with_fallback(&gpu, &offsets).unwrap();
    assert_eq!(fb.method, SamplingMethod::SoftwareBilinear);
    assert_eq!(fb.degradations.len(), 2, "{:?}", fb.degradations);
    assert!(!fb.reports.is_empty());
    assert!(!fault::log().is_empty(), "texture.limit must have fired");
}

/// The modulated (DCNv2) and sparse (DCNv3) operators walk the same
/// tex2D++ → tex2D → software ladder as v1 when texture builds fail. Each
/// rung runs the family's kernels without a copy of the modulation
/// tensor, whose values no trace reads. The fault log is pinned (one
/// `texture.limit` fire per texture rung, deterministic order), one
/// `kernels.fallback` obs event fires per degraded rung, and the surviving
/// software report keeps the family's label suffix.
#[test]
fn modulated_families_walk_the_fallback_ladder_with_pinned_logs() {
    use defcon::kernels::op::{synthetic_modulation, OpFamily};
    use defcon_support::obs::{self, find_spans, ObsConfig};

    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(16, 16, 12, 12);
    let offsets = synthetic_offsets(&shape, 4.0, 9);
    for family in [OpFamily::DcnV2, OpFamily::DcnV3] {
        // Obs lock first, then fault — the fixed order (see obs_invariants).
        let _obs = obs::arm(ObsConfig::default());
        let _armed = fault::arm(FaultPlan::new(61).point("texture.limit", Schedule::Always));
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            family,
            modulation: synthetic_modulation(&shape, family, 9),
            ..DeformConvOp::baseline(shape)
        };
        let fb = op.simulate_deform_with_fallback(&gpu, &offsets).unwrap();
        assert_eq!(fb.method, SamplingMethod::SoftwareBilinear, "{family:?}");
        assert_eq!(
            fb.degradations.len(),
            2,
            "{family:?}: {:?}",
            fb.degradations
        );
        assert!(fb.degradations[0].starts_with("tex2D++ unavailable"));
        assert!(fb.degradations[1].starts_with("tex2D unavailable"));
        // Pinned fault ordering: each texture rung builds exactly one
        // layered texture, so the injected fault fires once per rung, in
        // ladder order.
        assert_eq!(
            fault::log(),
            vec!["texture.limit#0", "texture.limit#1"],
            "{family:?}"
        );
        // One obs event per degraded rung, tagged with the rung it left.
        let forest = obs::snapshot();
        let events = find_spans(&forest, "kernels.fallback");
        assert_eq!(events.len(), 2, "{family:?}: one event per degraded rung");
        assert_eq!(events[0].str_arg("from"), Some("tex2D++"));
        assert_eq!(events[1].str_arg("from"), Some("tex2D"));
        let ladder = find_spans(&forest, "kernels.fallback_ladder");
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder[0].str_arg("selected"), Some("PyTorch"));
        assert_eq!(ladder[0].u64_arg("degradations"), Some(2));
        // The software rung that carried the launch still traces the
        // family-suffixed deform kernel.
        let suffix = family.label_suffix();
        assert!(
            fb.reports
                .iter()
                .any(|r| r.kernel.ends_with(suffix) && r.kernel.contains("deform")),
            "{family:?}: no deform kernel with suffix {suffix:?} in the surviving report"
        );
    }
}

struct NullKernel;

impl BlockTrace for NullKernel {
    fn grid_blocks(&self) -> usize {
        1
    }
    fn block_threads(&self) -> usize {
        32
    }
    fn trace_block(&self, _block: usize, _sink: &mut TraceSink) {}
}

#[test]
fn cache_config_fault_turns_launch_into_a_typed_constraint() {
    let _armed = fault::arm(FaultPlan::new(62).point("device.cache_config", Schedule::Always));
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let err = gpu.try_launch(&NullKernel).unwrap_err();
    match err {
        DefconError::Constraint { what, .. } => assert_eq!(what, "cache-config"),
        other => panic!("expected Constraint, got {other}"),
    }
    assert_eq!(fault::log(), vec!["device.cache_config#0"]);
}

// --- core::autotune: Cholesky pivot failure → random-search fallback ----

#[test]
fn cholesky_fault_degrades_bayesian_tuner_to_seeded_random_search() {
    use defcon::core::autotune::Autotuner;
    use defcon::kernels::TileConfig;
    let objective = |t: TileConfig| (t.h as f64 - 8.0).abs() + (t.w as f64 - 8.0).abs();
    let space = TileConfig::search_space();
    let faulted = {
        let _armed = fault::arm(FaultPlan::new(63).point("autotune.cholesky", Schedule::Always));
        let r = Autotuner::bayesian(10, 0xA07).run(&space, objective);
        assert!(!fault::log().is_empty(), "cholesky must have failed");
        r
    };
    // The fallback still spends the whole budget and returns a valid best.
    assert_eq!(faulted.evaluations.len(), 10);
    assert!(space.contains(&faulted.best));
    // Twice with the same seed → same evaluations: the fallback is as
    // deterministic as the happy path.
    let again = {
        let _armed = fault::arm(FaultPlan::new(63).point("autotune.cholesky", Schedule::Always));
        Autotuner::bayesian(10, 0xA07).run(&space, objective)
    };
    assert_eq!(faulted.evaluations, again.evaluations);
}

// --- core::search: checkpoint interruption / resume byte-identity -------

//
// `PureNet` is a [`SearchModel`] whose `forward_loss` is a pure function of
// `(store, batch)` — no Gumbel noise, no running statistics. For such a
// model the checkpoint captures the *entire* optimization state (values,
// momentum, LR schedule), so a resumed run must be byte-identical to an
// uninterrupted one, not merely statistically equivalent.

struct PureNet {
    w: ParamId,
    alpha: ParamId,
    targets: Vec<Tensor>,
}

impl PureNet {
    fn new(store: &mut ParamStore) -> Self {
        let w = store.add("w", Tensor::zeros(&[4]), true);
        let alpha = store.add("alpha", Tensor::from_vec(vec![0.05, -0.05], &[2]), false);
        let targets = (0..3)
            .map(|b| {
                let data = (0..4).map(|i| ((b * 4 + i) as f32 * 0.7).sin()).collect();
                Tensor::from_vec(data, &[4])
            })
            .collect();
        PureNet { w, alpha, targets }
    }
}

fn lut_key() -> LatencyKey {
    LatencyKey {
        c_in: 16,
        c_out: 16,
        h: 16,
        w: 16,
        stride: 1,
    }
}

fn tiny_lut() -> LatencyLut {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    LatencyLut::build(
        &gpu,
        &[lut_key()],
        SamplingMethod::SoftwareBilinear,
        OffsetPredictorKind::Standard,
        OpFamily::DcnV1,
    )
}

impl SearchModel for PureNet {
    fn num_slots(&self) -> usize {
        1
    }
    fn alpha(&self, _i: usize) -> ParamId {
        self.alpha
    }
    fn latency_key(&self, _i: usize) -> LatencyKey {
        lut_key()
    }
    fn set_temperature(&mut self, _tau: f32) {}
    fn forward_loss(&mut self, tape: &mut Tape, store: &ParamStore, batch: usize) -> Var {
        let w = tape.param(store, self.w);
        loss::mse(tape, w, &self.targets[batch % self.targets.len()])
    }
    fn freeze(&mut self, store: &ParamStore) -> Vec<LayerChoice> {
        let a = store.value(self.alpha).data();
        vec![if a[1] > a[0] {
            LayerChoice::Deformable
        } else {
            LayerChoice::Regular
        }]
    }
}

fn pure_cfg(finetune_epochs: usize) -> SearchConfig {
    SearchConfig {
        search_epochs: 2,
        finetune_epochs,
        iters_per_epoch: 2,
        ..Default::default()
    }
}

/// Runs `PureNet` through the search; returns the outcome and the exact
/// serialized parameter state (the "byte-identical" witness).
fn run_pure(cfg: SearchConfig, robust: &RobustConfig) -> (SearchOutcome, String) {
    let mut store = ParamStore::new();
    let mut net = PureNet::new(&mut store);
    let out = IntervalSearch::new(cfg, tiny_lut())
        .run(&mut net, &mut store, robust)
        .unwrap();
    (out, store.state_to_json().to_string())
}

fn assert_same_run(a: &(SearchOutcome, String), b: &(SearchOutcome, String)) {
    assert_eq!(a.0.loss_history, b.0.loss_history);
    assert!(
        a.0.final_loss == b.0.final_loss || (a.0.final_loss.is_nan() && b.0.final_loss.is_nan())
    );
    assert_eq!(a.0.choices, b.0.choices);
    assert_eq!(a.1, b.1, "parameter state must match byte-for-byte");
}

#[test]
fn search_resume_after_mid_run_interrupt_is_byte_identical() {
    let _quiet = fault::quiesce();
    let path = tmp_path("search-midrun");
    let _ = std::fs::remove_file(&path);
    // Reference: the uninterrupted run, no checkpointing.
    let reference = run_pure(pure_cfg(2), &RobustConfig::default());
    // "Interrupted" run: the process dies right after the search phase —
    // simulated by running only the search epochs against the checkpoint
    // path (the post-epoch checkpoint on disk is byte-identical to the one
    // the uninterrupted run writes at the same point).
    let with_ckpt = RobustConfig {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let _ = run_pure(pure_cfg(0), &with_ckpt);
    // Resume with the full config: both search epochs are skipped, the
    // optimizer schedule and momentum come from the checkpoint, and the
    // fine-tune phase runs to a byte-identical end state.
    let resumed = run_pure(pure_cfg(2), &with_ckpt);
    assert_same_run(&reference, &resumed);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_search_checkpoint_restarts_and_reproduces_the_run() {
    let _quiet = fault::quiesce();
    let path = tmp_path("search-trunc");
    // A torn write: CRC header present, payload cut off mid-token.
    std::fs::write(&path, "0c0ffee0\n{\"epochs_done\":").unwrap();
    let reference = run_pure(pure_cfg(2), &RobustConfig::default());
    let with_ckpt = RobustConfig {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    let recovered = run_pure(pure_cfg(2), &with_ckpt);
    assert_same_run(&reference, &recovered);
    // The run replaced the truncated file with a valid checkpoint.
    assert!(ckpt::load(&path).unwrap().is_some());
    std::fs::remove_file(&path).unwrap();
}

// --- core::serve: admission shedding and cache corruption ---------------

fn serve_req(c: usize, family: SamplingMethod) -> defcon::core::serve::SimRequest {
    use defcon::core::serve::{RequestPolicy, ServeDevice, SimRequest};
    use defcon::kernels::backend::BackendKind;
    use defcon::kernels::op::OpFamily;
    SimRequest {
        device: ServeDevice::XavierAgx,
        layer: DeformLayerShape::same3x3(c, c, 8, 8),
        kernel_family: family,
        op_family: OpFamily::DcnV1,
        backend: BackendKind::Gpusim,
        policy: RequestPolicy {
            max_blocks: 16,
            ..RequestPolicy::default()
        },
    }
}

fn serve_cfg() -> defcon::core::serve::ServeConfig {
    defcon::core::serve::ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache_capacity: 16,
        ..defcon::core::serve::ServeConfig::default()
    }
}

#[test]
fn enqueue_fault_sheds_then_degrades_then_serves() {
    use defcon::core::serve::{ServeOutcome, SimServer};
    // Admission fails on *every* submit: each request is shed once, shed
    // again on the post-drain retry, then degraded one ladder rung and
    // served inline. A request already at the software floor has no rung
    // left to give up, so it is shed *terminally* with a typed Overloaded
    // error — but still answered: shed → degrade-or-terminal, nothing
    // dropped.
    let _armed = fault::arm(FaultPlan::new(81).point("serve.enqueue", Schedule::Always));
    let mut server = SimServer::new(serve_cfg());
    let reqs = vec![
        serve_req(4, SamplingMethod::Tex2dPlusPlus),
        serve_req(4, SamplingMethod::Tex2d),
        serve_req(4, SamplingMethod::SoftwareBilinear),
    ];
    let out = server.serve(&reqs);
    assert_eq!(out.len(), 3, "every request must still be answered");
    // One rung down from each requested texture family; served degraded.
    assert!(out[0].degraded_admission && out[1].degraded_admission);
    assert!(out[0].error.is_none() && out[1].error.is_none());
    assert_eq!(out[0].outcome, ServeOutcome::Served);
    assert_eq!(out[1].outcome, ServeOutcome::Served);
    assert_eq!(out[0].request.kernel_family, SamplingMethod::Tex2d);
    assert_eq!(
        out[1].request.kernel_family,
        SamplingMethod::SoftwareBilinear
    );
    // The software-floor request is terminally shed with a typed error.
    assert!(!out[2].degraded_admission);
    assert_eq!(out[2].outcome, ServeOutcome::Shed);
    assert!(out[2]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("overloaded")));
    assert!(out[2].reports.is_empty());
    assert_eq!(
        out[2].request.kernel_family,
        SamplingMethod::SoftwareBilinear
    );
    assert_eq!(server.sheds(), 6, "submit + retry rejected per request");
    assert_eq!(server.degraded_admissions(), 2);
    assert_eq!(server.terminal_sheds(), 1);
    // Pinned fault ordering: two `serve.enqueue` evaluations per request.
    assert_eq!(
        fault::log(),
        vec![
            "serve.enqueue#0",
            "serve.enqueue#1",
            "serve.enqueue#2",
            "serve.enqueue#3",
            "serve.enqueue#4",
            "serve.enqueue#5",
        ]
    );
}

#[test]
fn queue_overflow_sheds_with_a_typed_overloaded_error() {
    use defcon::core::serve::SimServer;
    let _quiet = fault::quiesce();
    let mut server = SimServer::new(serve_cfg());
    for i in 0..4 {
        server
            .submit(serve_req(2 + i, SamplingMethod::Tex2d))
            .unwrap();
    }
    let err = server
        .submit(serve_req(8, SamplingMethod::Tex2d))
        .unwrap_err();
    assert!(
        matches!(
            err,
            DefconError::Overloaded {
                queue_depth: 4,
                capacity: 4,
                ..
            }
        ),
        "got {err}"
    );
    assert!(err.is_degradable(), "overload must be a degradable class");
}

#[test]
fn cache_fault_drops_the_entry_and_resimulates_identically() {
    use defcon::core::serve::SimServer;
    // `serve.cache` fires on the first would-be hit: the entry is dropped
    // (modelling corruption), the request re-simulates and re-caches, and
    // the third pass hits the re-inserted entry. All three responses must
    // carry identical bytes — re-derivation is as good as the cache.
    let _armed = fault::arm(FaultPlan::new(82).point("serve.cache", Schedule::Nth(0)));
    let mut server = SimServer::new(serve_cfg());
    let req = vec![serve_req(4, SamplingMethod::Tex2d)];
    let first = server.serve(&req);
    let second = server.serve(&req);
    let third = server.serve(&req);
    assert!(!first[0].from_cache, "cold miss");
    assert!(!second[0].from_cache, "fault turned the hit into a miss");
    assert!(third[0].from_cache, "re-inserted entry now hits");
    assert_eq!(first[0].content_string(), second[0].content_string());
    assert_eq!(first[0].content_string(), third[0].content_string());
    assert_eq!(server.cache().drops(), 1);
    assert_eq!(fault::log(), vec!["serve.cache#0"]);
}

#[test]
fn deadline_fault_forces_an_admission_verdict() {
    use defcon::core::serve::{ServeOutcome, SimServer};
    // `serve.deadline` models the deadline gate firing at admission. It
    // is only consulted for deadline-carrying requests, so unbudgeted
    // streams keep their fault-log indices.
    let _armed = fault::arm(FaultPlan::new(83).point("serve.deadline", Schedule::Always));
    let mut server = SimServer::new(serve_cfg());
    let unbudgeted = serve_req(4, SamplingMethod::Tex2d);
    let mut budgeted = serve_req(6, SamplingMethod::Tex2d);
    budgeted.policy.deadline_cycles = u64::MAX / 2;
    let out = server.serve(&[unbudgeted, budgeted]);
    assert_eq!(out[0].outcome, ServeOutcome::Served);
    assert!(out[0].error.is_none());
    assert_eq!(out[1].outcome, ServeOutcome::DeadlineExceeded);
    assert!(out[1]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("serve admission")));
    assert!(out[1].reports.is_empty());
    assert_eq!(server.deadline_exceeded(), 1);
    // Exactly one consult: the unbudgeted request never reached the gate.
    assert_eq!(fault::log(), vec!["serve.deadline#0"]);
}

#[test]
fn retry_attempt_fault_costs_the_retry_then_degrades() {
    use defcon::core::serve::{ServeOutcome, SimServer};
    // First admission is shed (`serve.enqueue` hit 0); the single default
    // retry is then lost to `retry.attempt` before the queue is even
    // consulted, so the request exhausts its retries and degrades one
    // rung — the (sorted) fault log pins exactly one consult of each.
    let _armed = fault::arm(
        FaultPlan::new(84)
            .point("serve.enqueue", Schedule::Nth(0))
            .point("retry.attempt", Schedule::Always),
    );
    let mut server = SimServer::new(serve_cfg());
    let out = server.serve(&[serve_req(4, SamplingMethod::Tex2d)]);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].outcome, ServeOutcome::Served);
    assert!(out[0].degraded_admission);
    assert_eq!(
        out[0].request.kernel_family,
        SamplingMethod::SoftwareBilinear
    );
    assert_eq!(server.retries(), 1);
    assert_eq!(server.degraded_admissions(), 1);
    assert_eq!(fault::log(), vec!["retry.attempt#0", "serve.enqueue#0"]);
}

#[test]
fn breaker_trip_fault_reroutes_only_texture_rungs() {
    use defcon::core::serve::{ServeOutcome, SimServer};
    use defcon_support::breaker::BreakerState;
    // `breaker.trip` force-opens the requested rung at admission. The
    // software floor is unguarded, so a floor request neither consults
    // the fault nor shifts the log indices.
    let _armed = fault::arm(FaultPlan::new(85).point("breaker.trip", Schedule::Nth(0)));
    let mut server = SimServer::new(serve_cfg());
    let out = server.serve(&[
        serve_req(4, SamplingMethod::SoftwareBilinear),
        serve_req(4, SamplingMethod::Tex2d),
    ]);
    assert_eq!(out[0].outcome, ServeOutcome::Served);
    assert_eq!(
        out[0].request.kernel_family,
        SamplingMethod::SoftwareBilinear
    );
    // The texture request was rerouted to the floor and still served.
    assert_eq!(out[1].outcome, ServeOutcome::Served);
    assert_eq!(
        out[1].request.kernel_family,
        SamplingMethod::SoftwareBilinear
    );
    assert_eq!(
        server.breaker().state(SamplingMethod::Tex2d),
        BreakerState::Open
    );
    assert_eq!(
        server.breaker().log(),
        ["tex2D:closed->open:trip".to_string()]
    );
    assert_eq!(fault::log(), vec!["breaker.trip#0"]);
}

#[test]
fn ckpt_write_fault_degrades_the_next_resume_to_a_fresh_start() {
    let path = tmp_path("search-torn-write");
    let _ = std::fs::remove_file(&path);
    let with_ckpt = RobustConfig {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    // Every checkpoint this run writes is torn (corrupted pre-write); the
    // run itself completes — the damage only surfaces on the next load.
    let first = {
        let _armed = fault::arm(FaultPlan::new(64).point("ckpt.write", Schedule::Always));
        let r = run_pure(pure_cfg(2), &with_ckpt);
        assert!(!fault::log().is_empty(), "every save must have been torn");
        r
    };
    // The resume finds only torn bytes, discards them (CRC), and restarts
    // from scratch — reproducing the run exactly, per the ckpt contract.
    let _quiet = fault::quiesce();
    assert!(matches!(
        ckpt::load(&path),
        Err(DefconError::Corrupt { .. })
    ));
    let second = run_pure(pure_cfg(2), &with_ckpt);
    assert_same_run(&first, &second);
    // And this run's checkpoints reached the disk intact.
    assert!(ckpt::load(&path).unwrap().is_some());
    std::fs::remove_file(&path).unwrap();
}

// --- accel: tile-scheduler faults fall back to the gpusim ladder --------

/// An injected `accel.tile` fault at configuration time degrades the accel
/// launch to the full gpusim fallback ladder: the launch still succeeds on
/// the requested texture path, the degradation line names the abandoned
/// substrate, the fault log is pinned (configuration evaluates the point
/// exactly once), and the `kernels.fallback` obs event is tagged
/// `from: "accel"` like any other abandoned rung.
#[test]
fn accel_tile_fault_degrades_to_the_gpusim_ladder_with_pinned_log() {
    use defcon::accel::{launch_with_gpu_fallback, Accel, AccelConfig};
    use defcon_support::obs::{self, find_spans, ObsConfig};

    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let accel = Accel::new(AccelConfig::edge());
    let shape = DeformLayerShape::same3x3(16, 16, 12, 12);
    let offsets = synthetic_offsets(&shape, 4.0, 11);
    let op = DeformConvOp {
        method: SamplingMethod::Tex2dPlusPlus,
        ..DeformConvOp::baseline(shape)
    };
    // Obs lock first, then fault — the fixed order (see obs_invariants).
    let _obs = obs::arm(ObsConfig::default());
    let _armed = fault::arm(FaultPlan::new(91).point("accel.tile", Schedule::Always));
    let fb = launch_with_gpu_fallback(&accel, &gpu, &op, &offsets).unwrap();
    // The gpusim ladder is healthy, so the requested rung survives.
    assert_eq!(fb.method, SamplingMethod::Tex2dPlusPlus);
    assert_eq!(fb.degradations.len(), 1, "{:?}", fb.degradations);
    assert!(
        fb.degradations[0].starts_with("accel unavailable"),
        "{:?}",
        fb.degradations
    );
    assert_eq!(fault::log(), vec!["accel.tile#0"]);
    let forest = obs::snapshot();
    let events = find_spans(&forest, "kernels.fallback");
    assert_eq!(events.len(), 1, "one event for the abandoned substrate");
    assert_eq!(events[0].str_arg("from"), Some("accel"));
    // No accel launch span: the substrate was rejected before launching.
    assert!(find_spans(&forest, "accel.launch").is_empty());
}

/// The same fault through the serving layer: a request pinned to the accel
/// backend is still answered (via the gpusim ladder), carries the
/// substrate degradation line, and stays cacheable — the replay is
/// byte-identical content even though the fault only fired once.
#[test]
fn accel_tile_fault_in_serving_degrades_but_still_answers_and_caches() {
    use defcon::core::serve::{ServeOutcome, SimServer};
    use defcon::kernels::backend::BackendKind;

    let _armed = fault::arm(FaultPlan::new(92).point("accel.tile", Schedule::Always));
    let mut server = SimServer::new(serve_cfg());
    let req = defcon::core::serve::SimRequest {
        backend: BackendKind::Accel,
        ..serve_req(4, SamplingMethod::Tex2d)
    };
    // Two separate sessions: within one drain a duplicate simulates
    // rather than waiting on its twin, so the cache hit needs a second
    // serve call (same discipline as the repro_serving session).
    let mut out = server.serve(&[req.clone()]);
    out.extend(server.serve(&[req]));
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].outcome, ServeOutcome::Served);
    assert!(out[0].error.is_none());
    assert_eq!(out[0].method, SamplingMethod::Tex2d);
    assert!(out[0].degradations[0].starts_with("accel unavailable"));
    // Second submission answers from the cache with identical content;
    // the fault point is only evaluated by the one real simulation.
    assert!(out[1].from_cache);
    assert_eq!(
        out[0].content_json().to_string(),
        out[1].content_json().to_string()
    );
    assert_eq!(fault::log(), vec!["accel.tile#0"]);
}
