//! The per-network launch memo (DESIGN.md §4 "Launch memo").
//!
//! A memoizing `Gpu` answers a repeated pure launch from the shared
//! `ReportCache`. That is only sound if:
//! 1. the memo key is **injective** — every field a pure kernel's trace
//!    reads is in its key, so two launches share a key only when they are
//!    the same launch — and kernels that read tensor data have no key;
//! 2. a hit returns **the bytes a fresh launch returns**, at any engine
//!    thread count;
//! 3. a forced 64-bit key **collision misses** instead of aliasing;
//! 4. a hit charges a deadline budget **exactly** as the launch it
//!    replaces, so budgets trip on the same launch with the same error.

use std::sync::Arc;

use defcon::gpusim::trace::BlockTrace;
use defcon::gpusim::{DeadlineBudget, DeviceConfig, Gpu, KernelReport, ReportCache, SamplePolicy};
use defcon::kernels::fused::FusedTexDeformKernel;
use defcon::kernels::gemm_kernel::{DepthwiseConvKernel, GemmKernel, RegularConvKernel};
use defcon::kernels::im2col::{address_map, Im2colDeformKernel};
use defcon::kernels::op::{synthetic_inputs, synthetic_offsets, DeformConvOp, SamplingMethod};
use defcon::kernels::DeformLayerShape;
use defcon_support::error::DefconError;
use defcon_support::json::ToJson;
use defcon_support::{fault, obs};

fn shape() -> DeformLayerShape {
    DeformLayerShape {
        n: 1,
        c_in: 8,
        c_out: 16,
        h: 12,
        w: 10,
        kernel: 3,
        stride: 1,
        pad: 1,
        deform_groups: 1,
    }
}

/// `shape()` with each of its nine fields bumped in turn.
fn shape_mutants() -> Vec<DeformLayerShape> {
    let s = shape();
    vec![
        DeformLayerShape { n: s.n + 1, ..s },
        DeformLayerShape {
            c_in: s.c_in + 1,
            ..s
        },
        DeformLayerShape {
            c_out: s.c_out + 1,
            ..s
        },
        DeformLayerShape { h: s.h + 1, ..s },
        DeformLayerShape { w: s.w + 1, ..s },
        DeformLayerShape {
            kernel: s.kernel + 1,
            ..s
        },
        DeformLayerShape {
            stride: s.stride + 1,
            ..s
        },
        DeformLayerShape {
            pad: s.pad + 1,
            ..s
        },
        DeformLayerShape {
            deform_groups: s.deform_groups + 1,
            ..s
        },
    ]
}

fn gemm() -> GemmKernel {
    GemmKernel {
        m: 32,
        k: 72,
        n: 120,
        batch: 1,
        a_base: address_map::WEIGHTS,
        b_base: address_map::COLUMNS,
        c_base: address_map::OUTPUT,
        name: "conv_gemm".into(),
    }
}

/// `gemm()` with each of its eight fields changed in turn.
fn gemm_mutants() -> Vec<GemmKernel> {
    let g = gemm;
    vec![
        GemmKernel { m: 33, ..g() },
        GemmKernel { k: 73, ..g() },
        GemmKernel { n: 121, ..g() },
        GemmKernel { batch: 2, ..g() },
        GemmKernel {
            a_base: address_map::INPUT,
            ..g()
        },
        GemmKernel {
            b_base: address_map::INPUT,
            ..g()
        },
        GemmKernel {
            c_base: address_map::OFFSETS,
            ..g()
        },
        GemmKernel {
            name: "bottleneck_1x1".into(),
            ..g()
        },
    ]
}

fn key(k: &dyn BlockTrace) -> String {
    k.memo_key().expect("pure kernels have a memo key")
}

fn assert_all_distinct(what: &str, base: &str, mutants: &[String]) {
    for (i, m) in mutants.iter().enumerate() {
        assert_ne!(m, base, "{what}: mutant {i} kept the base key {base}");
        for (j, other) in mutants.iter().enumerate().skip(i + 1) {
            assert_ne!(m, other, "{what}: mutants {i} and {j} share a key");
        }
    }
}

#[test]
fn memo_keys_are_injective_over_single_field_mutants() {
    // Equal descriptors give equal keys.
    assert_eq!(key(&gemm()), key(&gemm()));
    let conv = |s, name: &str| RegularConvKernel::new(s, name);
    assert_eq!(
        key(&conv(shape(), "head_conv")),
        key(&conv(shape(), "head_conv"))
    );
    let dw = |shape| DepthwiseConvKernel { shape };
    assert_eq!(key(&dw(shape())), key(&dw(shape())));

    let gemm_keys: Vec<String> = gemm_mutants().iter().map(|g| key(g)).collect();
    assert_all_distinct("GemmKernel", &key(&gemm()), &gemm_keys);

    let mut conv_keys: Vec<String> = shape_mutants()
        .into_iter()
        .map(|s| key(&conv(s, "head_conv")))
        .collect();
    conv_keys.push(key(&conv(shape(), "offset_conv")));
    assert_all_distinct(
        "RegularConvKernel",
        &key(&conv(shape(), "head_conv")),
        &conv_keys,
    );

    let dw_keys: Vec<String> = shape_mutants().into_iter().map(|s| key(&dw(s))).collect();
    assert_all_distinct("DepthwiseConvKernel", &key(&dw(shape())), &dw_keys);

    // The kernel type is part of the key: a rigid conv labelled like the
    // depthwise kernel, over the same shape, is still a different launch.
    assert_ne!(key(&conv(shape(), "depthwise_conv")), key(&dw(shape())));
}

#[test]
fn deformable_kernels_have_no_memo_key() {
    let cfg = DeviceConfig::xavier_agx();
    let offsets = synthetic_offsets(&shape(), 4.0, 11);
    let sw = DeformConvOp::baseline(shape());
    let im2col =
        Im2colDeformKernel::new(&sw, &offsets, cfg.texture_limits()).expect("tiny shape fits");
    assert!(im2col.memo_key().is_none());
    for method in [SamplingMethod::Tex2d, SamplingMethod::Tex2dPlusPlus] {
        let op = DeformConvOp {
            method,
            ..sw.clone()
        };
        let fused = FusedTexDeformKernel::new(&op, &offsets, &cfg).expect("tiny shape fits");
        assert!(fused.memo_key().is_none(), "{method:?}");
    }
}

fn gpu(threads: usize) -> Gpu {
    Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(threads),
    )
}

fn bytes(r: &KernelReport) -> String {
    r.to_json().to_string()
}

#[test]
fn a_hit_is_byte_identical_to_a_fresh_launch() {
    let _quiet = fault::quiesce();
    for threads in [1usize, 4] {
        let plain = gpu(threads);
        let kernels: [&dyn BlockTrace; 3] = [
            &gemm(),
            &RegularConvKernel::new(shape(), "head_conv"),
            &DepthwiseConvKernel { shape: shape() },
        ];
        let _obs = obs::arm(obs::ObsConfig::default());
        let memo = plain.memoizing();
        for k in kernels {
            let fresh = bytes(&plain.launch(k));
            assert_eq!(bytes(&memo.launch(k)), fresh, "miss, threads={threads}");
            assert_eq!(bytes(&memo.launch(k)), fresh, "hit, threads={threads}");
            let tried = memo.try_launch(k).expect("valid launch");
            assert_eq!(bytes(&tried), fresh, "try_launch hit, threads={threads}");
        }
        assert_eq!(obs::counter("gpusim.memo.misses"), 3, "threads={threads}");
        assert_eq!(obs::counter("gpusim.memo.hits"), 6, "threads={threads}");

        // The whole deformable op: its offset conv and GEMM stages hit on
        // the second run, its sampling stage re-runs, and every report
        // matches an unmemoized run.
        let (x, offsets) = synthetic_inputs(&shape(), 4.0, 5);
        let op = DeformConvOp::baseline(shape());
        let want: Vec<String> = op
            .simulate_total(&plain, &x, &offsets)
            .1
            .iter()
            .map(bytes)
            .collect();
        for _ in 0..2 {
            let got: Vec<String> = op
                .simulate_total(&memo, &x, &offsets)
                .1
                .iter()
                .map(bytes)
                .collect();
            assert_eq!(got, want, "simulate_total, threads={threads}");
        }
    }
}

#[test]
fn a_forced_key_collision_misses() {
    let r = |kernel: &str| KernelReport {
        device: "d".into(),
        kernel: kernel.into(),
        time_ms: 1.0,
        cycles: 1.0,
        grid_blocks: 1,
        simulated_blocks: 1,
        counters: Default::default(),
    };
    let mut cache = ReportCache::new(4);
    cache.insert(7, "GemmKernel { a }".into(), r("a"));
    assert_eq!(
        cache.lookup(7, "GemmKernel { a }").map(|h| h.kernel),
        Some("a".into())
    );
    assert!(
        cache.lookup(7, "GemmKernel { b }").is_none(),
        "same FNV key, different key string must miss"
    );
    // Both strings can live under one key without aliasing each other.
    cache.insert(7, "GemmKernel { b }".into(), r("b"));
    assert_eq!(
        cache.lookup(7, "GemmKernel { a }").map(|h| h.kernel),
        Some("a".into())
    );
    assert_eq!(
        cache.lookup(7, "GemmKernel { b }").map(|h| h.kernel),
        Some("b".into())
    );
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 1, 2));
}

#[test]
fn budgets_trip_on_the_same_launch_with_the_same_error() {
    let _quiet = fault::quiesce();
    let small = gemm();
    let big = GemmKernel { m: 64, ..gemm() };
    let probe = gpu(1);
    let small_cycles = DeadlineBudget::charge_units(probe.launch(&small).cycles);
    assert!(DeadlineBudget::charge_units(probe.launch(&big).cycles) > small_cycles);
    // Room for exactly two launches of `small`; the third launch is a hit
    // (small again) or a miss (big), and must trip either way.
    for (case, third) in [&small, &big].into_iter().enumerate() {
        let run = |memoize: bool| {
            let budget = Arc::new(DeadlineBudget::new(2 * small_cycles));
            let plain = gpu(1).with_budget(Arc::clone(&budget));
            let gpu = if memoize { plain.memoizing() } else { plain };
            let first = gpu.try_launch(&small).map(|r| bytes(&r));
            let second = gpu.try_launch(&small).map(|r| bytes(&r));
            let third = gpu.try_launch(third).map(|r| bytes(&r));
            let after = gpu.try_launch(&small).map(|r| bytes(&r));
            (
                first,
                second,
                third,
                after,
                budget.spent_cycles(),
                budget.is_cancelled(),
            )
        };
        let (memo, plain) = (run(true), run(false));
        assert_eq!(memo, plain, "case {case}");
        assert!(memo.0.is_ok() && memo.1.is_ok());
        assert!(matches!(
            memo.2,
            Err(DefconError::DeadlineExceeded { ref what, budget_cycles })
                if what == "launch conv_gemm" && budget_cycles == 2 * small_cycles
        ));
        assert!(memo.3.is_err() && memo.5, "a tripped budget fails at entry");
    }
}
