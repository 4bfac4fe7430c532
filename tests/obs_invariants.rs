//! Metamorphic invariants of the observability layer (`support::obs`),
//! exercised end to end through the simulator and the kernel fallback
//! ladder. These are relations that must hold between *parts* of one trace
//! — no golden files, no magic numbers.
//!
//! Arming obs is process-global, so every test here arms (or quiesces) the
//! layer; the arming lock serializes them. Tests that also arm the fault
//! harness always take the obs lock **first** — one fixed order means the
//! two independent arming locks can never deadlock.

use defcon::gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon::kernels::im2col::Im2colDeformKernel;
use defcon::kernels::op::{synthetic_inputs, DeformConvOp, SamplingMethod};
use defcon::kernels::DeformLayerShape;
use defcon_support::fault::{self, FaultPlan, Schedule};
use defcon_support::obs::{self, find_spans, ObsConfig, SpanNode};

/// A small deformable layer whose grid fits the default 96-block cap, so a
/// launch simulates every block. Owns the operator and inputs the kernel
/// borrows.
struct Layer {
    op: DeformConvOp,
    x: defcon::tensor::Tensor,
    off: defcon::tensor::Tensor,
}

fn layer(h: usize, w: usize) -> Layer {
    let shape = DeformLayerShape::same3x3(8, 8, h, w);
    let (x, off) = synthetic_inputs(&shape, 2.0, 21);
    let op = DeformConvOp::baseline(shape);
    Layer { op, x, off }
}

impl Layer {
    fn kernel(&self) -> Im2colDeformKernel<'_> {
        let limits = DeviceConfig::xavier_agx().texture_limits();
        Im2colDeformKernel::new(&self.op, &self.x, &self.off, limits).unwrap()
    }
}

fn gpu(max_blocks: usize) -> Gpu {
    let policy = SamplePolicy {
        max_blocks,
        ..SamplePolicy::default()
    };
    Gpu::with_policy(DeviceConfig::xavier_agx(), policy)
}

/// Structural nesting on the logical clock: every child span lies inside
/// its parent's `[ts, ts + dur]` window and siblings' durations sum to no
/// more than the parent's (each event consumes one tick, so a parent's
/// duration strictly bounds everything recorded inside it).
fn assert_nesting(span: &SpanNode) {
    let mut child_total = 0u64;
    for c in &span.children {
        if !c.instant {
            assert!(
                c.ts >= span.ts && c.ts + c.dur <= span.ts + span.dur,
                "child '{}' [{}, {}] escapes parent '{}' [{}, {}]",
                c.name,
                c.ts,
                c.ts + c.dur,
                span.name,
                span.ts,
                span.ts + span.dur
            );
            child_total += c.dur;
        }
        assert_nesting(c);
    }
    assert!(
        child_total <= span.dur,
        "'{}': child durations {} exceed parent {}",
        span.name,
        child_total,
        span.dur
    );
}

#[test]
fn child_spans_nest_inside_their_parents() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    let l = layer(48, 48);
    let (_, reports) = l.op.simulate_total(&gpu(usize::MAX), &l.x, &l.off);
    let forest = obs::snapshot();
    for root in &forest {
        assert_nesting(root);
    }
    // One launch span per report, in report order, under its label.
    let launches = find_spans(&forest, "gpusim.launch");
    assert_eq!(launches.len(), reports.len());
    for (span, report) in launches.iter().zip(&reports) {
        assert_eq!(span.str_arg("kernel"), Some(report.kernel.as_str()));
    }
}

#[test]
fn launch_gauges_equal_the_report_aggregate() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    // Unsampled launch: scale is the exact identity, so the launch span
    // and the registry (fed pre-scale) and the report (post-scale) must
    // agree *exactly*.
    let l = layer(48, 48);
    let report = gpu(usize::MAX).launch(&l.kernel());
    let forest = obs::snapshot();
    let launch = find_spans(&forest, "gpusim.launch")[0];
    for (rate, hits, accesses, rep_hits, rep_accesses) in [
        (
            "gpusim.l1_hit_rate",
            "l1_hits",
            "l1_accesses",
            report.counters.l1_hits,
            report.counters.l1_accesses,
        ),
        (
            "gpusim.tex_hit_rate",
            "tex_hits",
            "tex_line_accesses",
            report.counters.tex_hits,
            report.counters.tex_line_accesses,
        ),
        (
            "gpusim.l2_hit_rate",
            "l2_hits",
            "l2_accesses",
            report.counters.l2_hits,
            report.counters.l2_accesses,
        ),
    ] {
        assert_eq!(
            launch.u64_arg(hits),
            Some(rep_hits),
            "{hits}: span vs report"
        );
        assert_eq!(
            launch.u64_arg(accesses),
            Some(rep_accesses),
            "{accesses}: span vs report"
        );
        let want = if rep_accesses == 0 {
            0.0
        } else {
            rep_hits as f64 / rep_accesses as f64
        };
        let gauge = obs::gauge(rate).unwrap_or_else(|| panic!("gauge '{rate}' missing"));
        assert_eq!(gauge, want, "{rate}: gauge vs report");
    }
}

#[test]
fn sampled_launch_gauges_match_scaled_report_within_rounding() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    // Sampled launch (9 blocks, cap 4): the report's counters are scaled by
    // 9/4 with per-counter rounding, so its hit rates may drift from the
    // pre-scale registry gauges — but only by the rounding, never more.
    let l = layer(48, 48);
    let report = gpu(4).launch(&l.kernel());
    assert!(report.grid_blocks > report.simulated_blocks, "not sampled");
    for (gauge_name, rep_rate) in [
        ("gpusim.l1_hit_rate", report.counters.l1_hit_rate()),
        ("gpusim.tex_hit_rate", report.counters.tex_hit_rate()),
        ("gpusim.l2_hit_rate", report.counters.l2_hit_rate()),
    ] {
        let gauge = obs::gauge(gauge_name).unwrap_or_else(|| panic!("gauge '{gauge_name}'"));
        assert!(
            (gauge - rep_rate).abs() <= 1e-3,
            "{gauge_name}: pre-scale {gauge} vs scaled report {rep_rate}"
        );
    }
}

#[test]
fn counter_registry_accumulates_linearly_across_launches() {
    let _obs = obs::arm(ObsConfig::default());
    let _quiet = fault::quiesce();
    let l = layer(24, 24);
    let k = l.kernel();
    let g = gpu(usize::MAX);
    g.launch(&k);
    let after_one = obs::counter("gpusim.flops");
    assert!(after_one > 0, "launch recorded no flops");
    g.launch(&k);
    assert_eq!(
        obs::counter("gpusim.flops"),
        2 * after_one,
        "two identical launches must add identical counter deltas"
    );
}

/// The fallback ladder emits `kernels.fallback` events **iff** something
/// actually degraded — here, only when the fault harness forces texture
/// builds to fail. Both directions of the iff are checked.
#[test]
fn fallback_events_fire_iff_a_fault_forced_the_downgrade() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(16, 16, 12, 12);
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 9);
    let op = DeformConvOp {
        method: SamplingMethod::Tex2dPlusPlus,
        ..DeformConvOp::baseline(shape)
    };

    // No fault armed: the first rung carries the launch, zero events.
    {
        let _obs = obs::arm(ObsConfig::default());
        let _quiet = fault::quiesce();
        let fb = op
            .simulate_deform_with_fallback(&gpu, &x, &offsets)
            .unwrap();
        assert_eq!(fb.method, SamplingMethod::Tex2dPlusPlus);
        let forest = obs::snapshot();
        let ladder = find_spans(&forest, "kernels.fallback_ladder");
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder[0].str_arg("requested"), Some("tex2D++"));
        assert_eq!(ladder[0].str_arg("selected"), Some("tex2D++"));
        assert_eq!(ladder[0].u64_arg("degradations"), Some(0));
        assert!(
            find_spans(&forest, "kernels.fallback").is_empty(),
            "no degradation happened, yet fallback events were emitted"
        );
    }

    // Fault armed (obs lock first, then fault — the fixed order): every
    // texture build fails, both texture rungs degrade, and the trace shows
    // exactly one event per degradation.
    {
        let _obs = obs::arm(ObsConfig::default());
        let _armed = fault::arm(FaultPlan::new(61).point("texture.limit", Schedule::Always));
        let fb = op
            .simulate_deform_with_fallback(&gpu, &x, &offsets)
            .unwrap();
        assert_eq!(fb.method, SamplingMethod::SoftwareBilinear);
        assert_eq!(fb.degradations.len(), 2);
        let forest = obs::snapshot();
        let ladder = find_spans(&forest, "kernels.fallback_ladder");
        assert_eq!(ladder.len(), 1);
        assert_eq!(ladder[0].str_arg("selected"), Some("PyTorch"));
        assert_eq!(ladder[0].u64_arg("degradations"), Some(2));
        let events = find_spans(&forest, "kernels.fallback");
        assert_eq!(events.len(), 2, "one event per degradation");
        assert_eq!(events[0].str_arg("from"), Some("tex2D++"));
        assert_eq!(events[1].str_arg("from"), Some("tex2D"));
        for e in &events {
            assert!(e.instant, "fallback must be an instant event");
        }
    }
}
