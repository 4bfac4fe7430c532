//! Frozen-digest oracles for code whose pre-optimization copy is gone.
//!
//! The shared-scratch deformable CPU references and the hot-path trace
//! kernels were each once checked bit for bit against a verbatim copy of
//! the naive code they replaced. Those copies were deleted; before that,
//! FNV-1a digests of their outputs on the inputs below were recorded in
//! `crates/bench/tests/golden/frozen_oracles.json`, each one asserted equal
//! to both the copy's output and the shipped code's. The inputs and the
//! bytes are the same, so comparing against the digests checks exactly
//! what comparing against the copies did. The file has no bless path: a
//! digest that stops matching is a behaviour change, never a re-record.
//!
//! (The texture sampler's frozen digests are checked next to its live
//! oracle in `tests/texture_boundary_props.rs`.)

use defcon::gpusim::cache::Cache;
use defcon::gpusim::report::Counters;
use defcon::gpusim::trace::{BlockTrace, TraceSink};
use defcon::kernels::fused::FusedTexDeformKernel;
use defcon::kernels::im2col::Im2colDeformKernel;
use defcon::prelude::*;
use defcon::tensor::conv::Conv2dParams;
use defcon::tensor::sample::{
    deform_conv2d_ref, deform_conv2d_v2_ref, deform_conv2d_v3_ref, DeformConv2dParams,
};
use defcon_support::json::{Json, ToJson};
use defcon_support::rng::fnv1a64;

/// The frozen digest `section/key`.
fn frozen(section: &str, key: &str) -> String {
    let golden = Json::parse(include_str!(
        "../crates/bench/tests/golden/frozen_oracles.json"
    ))
    .expect("frozen_oracles.json parses");
    golden
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no frozen digest {section}/{key}"))
        .to_string()
}

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// The forward references of all three families on every shape, offset
/// transform and group layout of the former legacy-pinning cells: 3 shapes
/// × 3 transforms × 3 families = 27 digests of the naive per-`(n, c_out)`
/// loops' output bits.
#[test]
fn deform_refs_match_frozen_naive_loop_digests() {
    let cases = [
        (1usize, 4usize, 3usize, 1usize, 6usize, 6usize),
        (2, 4, 2, 2, 5, 7),
        (1, 6, 5, 3, 4, 4),
    ];
    let transforms = [
        OffsetTransform::Identity,
        OffsetTransform::Bounded(1.25),
        OffsetTransform::BoundedRounded(2.0),
    ];
    for (case, &(n, c_in, c_out, dgroups, h, w)) in cases.iter().enumerate() {
        let p = DeformConv2dParams {
            conv: Conv2dParams::same(3),
            deform_groups: dgroups,
        };
        let seed = 9000 + 17 * case as u64;
        let x = Tensor::randn(&[n, c_in, h, w], 0.0, 1.0, seed);
        let wt = Tensor::randn(&[c_out, c_in, 3, 3], 0.0, 0.4, seed + 1);
        let off = Tensor::rand_uniform(&[n, p.offset_channels(), h, w], -1.6, 1.6, seed + 2);
        let mask = Tensor::rand_uniform(&[n, dgroups * 9, h, w], 0.0, 1.0, seed + 3);
        let logits = Tensor::rand_uniform(&[n, dgroups * 9, h, w], -2.0, 2.0, seed + 4);
        let bias = Tensor::randn(&[c_out], 0.0, 0.1, seed + 5);
        for tr in transforms {
            let outputs = [
                ("v1", deform_conv2d_ref(&x, &off, &wt, Some(&bias), &p, tr)),
                (
                    "v2",
                    deform_conv2d_v2_ref(&x, &off, &mask, &wt, None, &p, tr),
                ),
                (
                    "v3",
                    deform_conv2d_v3_ref(&x, &off, &logits, &wt, Some(&bias), &p, tr),
                ),
            ];
            for (family, out) in outputs {
                let bytes: Vec<u8> = out
                    .data()
                    .iter()
                    .flat_map(|v| v.to_bits().to_le_bytes())
                    .collect();
                let key = format!("{family} case {case} {tr:?}");
                assert_eq!(
                    digest(&bytes),
                    frozen("deform_ref", &key),
                    "{key}: output bits moved off the frozen naive loop"
                );
            }
        }
    }
}

/// What the serial engine's per-block cadence (flush L1 and texture cache,
/// trace, merge counters) observes over the whole grid: launch-wide
/// counters plus the summed exposed latency. `benches/hot_path.rs` computes
/// the same string on its timed passes.
fn serial_fingerprint(kernel: &dyn BlockTrace, cfg: &DeviceConfig) -> String {
    let warps = kernel.block_threads().div_ceil(cfg.warp_size);
    let (mut l1, mut texc, mut l2) = (
        Cache::new(cfg.l1),
        Cache::new(cfg.tex_cache),
        Cache::new(cfg.l2),
    );
    let mut counters = Counters::default();
    let mut latency = 0u64;
    for b in 0..kernel.grid_blocks() {
        l1.flush();
        texc.flush();
        let mut sink = TraceSink::new(cfg, &mut l1, &mut texc, &mut l2, warps);
        kernel.trace_block(b, &mut sink);
        latency += sink.cost.latency_cycles;
        counters.merge(&sink.counters);
    }
    format!("{} latency_cycles={latency}", counters.to_json())
}

/// The hot-path byte gate on the tiny layer. For every family, the software
/// im2col and fused tex2D kernels' exhaustive launch reports at 1 and 4
/// engine threads, and their serial counters + latency fingerprint, must
/// hash to the digests frozen from the pre-optimization kernel bodies
/// (per-warp `Vec` collects, per-channel coordinate recomputation) and
/// simulator (allocating coalescer, split-array `%`-indexed caches) at one
/// thread: a launch is one serial walk at every thread count.
#[test]
fn hot_path_reports_match_frozen_pre_optimization_digests() {
    let shape = DeformLayerShape::same3x3(4, 4, 40, 40);
    let cfg = DeviceConfig::xavier_agx();
    let offsets = synthetic_offsets(&shape, 4.0, 0xA11C);
    for family in OpFamily::all() {
        let op = DeformConvOp {
            family,
            modulation: synthetic_modulation(&shape, family, 0xA11C),
            ..DeformConvOp::baseline(shape)
        };
        let im2col = Im2colDeformKernel::new(&op, &offsets, cfg.texture_limits())
            .expect("tiny layer fits the texture limits");
        let tex2d = DeformConvOp {
            method: SamplingMethod::Tex2d,
            ..op.clone()
        };
        let fused = FusedTexDeformKernel::new(&tex2d, &offsets, &cfg)
            .expect("tiny layer fits the texture limits");
        for kernel in [&im2col as &dyn BlockTrace, &fused] {
            let name = kernel.label();
            for threads in [1usize, 4] {
                let gpu = Gpu::with_policy(
                    cfg.clone(),
                    SamplePolicy::exhaustive().with_threads(threads),
                );
                let report = gpu.launch(kernel).to_json().to_string();
                assert_eq!(
                    digest(report.as_bytes()),
                    frozen("hot_path_report", &format!("{name} t1")),
                    "{name}: {threads}-thread report moved off the frozen pre-optimization path"
                );
            }
            assert_eq!(
                digest(serial_fingerprint(kernel, &cfg).as_bytes()),
                frozen("hot_path_fingerprint", &format!("tiny {name}")),
                "{name}: counters or latency moved off the frozen pre-optimization simulator"
            );
        }
    }
}
