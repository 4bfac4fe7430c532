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
//! The dense launches (GEMM, implicit-GEMM and depthwise convolution) are
//! pinned the same way, by digests recorded from the code that staged and
//! coalesced every lane of their warp accesses, before those accesses were
//! traced as address runs.
//!
//! (The texture sampler's frozen digests are checked next to its live
//! oracle in `tests/texture_boundary_props.rs`.)

use defcon::gpusim::cache::Cache;
use defcon::gpusim::report::Counters;
use defcon::gpusim::trace::{BlockTrace, TraceSink};
use defcon::kernels::fused::FusedTexDeformKernel;
use defcon::kernels::gemm_kernel::{DepthwiseConvKernel, GemmKernel, RegularConvKernel};
use defcon::kernels::im2col::{address_map, Im2colDeformKernel};
use defcon::prelude::*;
use defcon::tensor::conv::Conv2dParams;
use defcon::tensor::sample::{
    deform_conv2d_backward_ref, deform_conv2d_ref, DeformConv2dParams, Modulation,
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

/// Digest of a tensor's f32 bits, little-endian.
fn tensor_digest(t: &Tensor) -> String {
    let bytes: Vec<u8> = t
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    digest(&bytes)
}

/// The seeded inputs of one reference case.
struct RefCase {
    p: DeformConv2dParams,
    x: Tensor,
    wt: Tensor,
    off: Tensor,
    mask: Tensor,
    logits: Tensor,
    bias: Tensor,
    /// Upstream gradient for the backward references.
    gy: Tensor,
}

/// The former legacy-pinning cells: 3 shapes (one with two images, two
/// with several deformable groups), each under 3 offset transforms.
const REF_TRANSFORMS: [OffsetTransform; 3] = [
    OffsetTransform::Identity,
    OffsetTransform::Bounded(1.25),
    OffsetTransform::BoundedRounded(2.0),
];

fn ref_cases() -> Vec<RefCase> {
    let shapes = [
        (1usize, 4usize, 3usize, 1usize, 6usize, 6usize),
        (2, 4, 2, 2, 5, 7),
        (1, 6, 5, 3, 4, 4),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(case, &(n, c_in, c_out, dgroups, h, w))| {
            let p = DeformConv2dParams {
                conv: Conv2dParams::same(3),
                deform_groups: dgroups,
            };
            let seed = 9000 + 17 * case as u64;
            RefCase {
                p,
                x: Tensor::randn(&[n, c_in, h, w], 0.0, 1.0, seed),
                wt: Tensor::randn(&[c_out, c_in, 3, 3], 0.0, 0.4, seed + 1),
                off: Tensor::rand_uniform(&[n, p.offset_channels(), h, w], -1.6, 1.6, seed + 2),
                mask: Tensor::rand_uniform(&[n, dgroups * 9, h, w], 0.0, 1.0, seed + 3),
                logits: Tensor::rand_uniform(&[n, dgroups * 9, h, w], -2.0, 2.0, seed + 4),
                bias: Tensor::randn(&[c_out], 0.0, 0.1, seed + 5),
                gy: Tensor::randn(&[n, c_out, h, w], 0.0, 1.0, seed + 6),
            }
        })
        .collect()
}

/// The forward references of all three families on every case: 3 shapes
/// × 3 transforms × 3 families = 27 digests of the naive per-`(n, c_out)`
/// loops' output bits.
#[test]
fn deform_refs_match_frozen_naive_loop_digests() {
    for (case, c) in ref_cases().iter().enumerate() {
        let (x, off, wt, p) = (&c.x, &c.off, &c.wt, &c.p);
        let families = [
            ("v1", Modulation::None, Some(&c.bias)),
            ("v2", Modulation::Mask(&c.mask), None),
            ("v3", Modulation::Softmax(&c.logits), Some(&c.bias)),
        ];
        for tr in REF_TRANSFORMS {
            for (family, modulation, bias) in families {
                let out = deform_conv2d_ref(x, off, modulation, wt, bias, p, tr);
                let key = format!("{family} case {case} {tr:?}");
                assert_eq!(
                    tensor_digest(&out),
                    frozen("deform_ref", &key),
                    "{key}: output bits moved off the frozen naive loop"
                );
            }
        }
    }
}

/// The backward references of the two trained families on the same cases
/// against a seeded upstream gradient: every returned tensor (input,
/// offset and weight gradients, plus the mask gradient for v2) is pinned
/// to digests recorded from the separate v1 and v2 backward loops.
/// The finite-difference checks beside the references hold at a
/// tolerance, so a reordered sum would pass them; it fails these.
#[test]
fn deform_backward_refs_match_frozen_digests() {
    for (case, c) in ref_cases().iter().enumerate() {
        let (x, off, wt, p) = (&c.x, &c.off, &c.wt, &c.p);
        for tr in REF_TRANSFORMS {
            for (family, mask) in [("v1", None), ("v2", Some(&c.mask))] {
                let (gx, goff, gmask, gw) =
                    deform_conv2d_backward_ref(x, off, mask, wt, &c.gy, p, tr);
                assert_eq!(gmask.is_some(), mask.is_some(), "{family}: mask gradient");
                let mut grads = vec![("gx", gx), ("goff", goff), ("gw", gw)];
                grads.extend(gmask.map(|g| ("gmask", g)));
                for (name, g) in grads {
                    let key = format!("{family} {name} case {case} {tr:?}");
                    assert_eq!(
                        tensor_digest(&g),
                        frozen("deform_backward_ref", &key),
                        "{key}: gradient bits moved off the frozen backward loop"
                    );
                }
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

/// A padded 3×3 convolution at `stride` whose output spans more than one
/// 8×32 tile in both directions and whose 40 output channels leave a
/// partial 32-channel block.
fn padded_conv(stride: usize) -> DeformLayerShape {
    DeformLayerShape {
        stride,
        ..DeformLayerShape::same3x3(3, 40, 19, 70)
    }
}

/// The dense byte gate on tiny layers: on both presets, the exhaustive
/// launch reports at 1 and 4 engine threads and the serial counters +
/// latency fingerprints of the conv GEMM, a pointwise GEMM whose `n` is
/// not a multiple of the 64-wide tile and whose `k` is not a multiple of
/// the 8-deep k step, and padded regular and depthwise convolutions at
/// stride 1 and 2, against digests frozen from the lane-staging trace.
#[test]
fn dense_launches_match_frozen_lane_trace_digests() {
    let pointwise = GemmKernel {
        m: 18,
        k: 13,
        n: 11 * 9,
        batch: 2,
        a_base: address_map::WEIGHTS,
        b_base: address_map::INPUT,
        c_base: address_map::OFFSETS,
        name: "offset_pointwise".into(),
    };
    let conv_gemm = GemmKernel::for_conv(&DeformLayerShape::same3x3(8, 8, 20, 20));
    let regular = [1, 2].map(|s| RegularConvKernel::new(padded_conv(s), "offset_conv"));
    let depthwise = [1, 2].map(|s| DepthwiseConvKernel {
        shape: padded_conv(s),
    });
    let kernels: [(&str, &dyn BlockTrace); 6] = [
        ("conv_gemm", &conv_gemm),
        ("pointwise_gemm", &pointwise),
        ("regular s1", &regular[0]),
        ("regular s2", &regular[1]),
        ("depthwise s1", &depthwise[0]),
        ("depthwise s2", &depthwise[1]),
    ];
    for (preset, cfg) in [
        ("xavier", DeviceConfig::xavier_agx()),
        ("2080ti", DeviceConfig::rtx2080ti()),
    ] {
        for (name, kernel) in kernels {
            let key = format!("{preset} {name}");
            for threads in [1usize, 4] {
                let gpu = Gpu::with_policy(
                    cfg.clone(),
                    SamplePolicy::exhaustive().with_threads(threads),
                );
                let report = gpu.launch(kernel).to_json().to_string();
                assert_eq!(
                    digest(report.as_bytes()),
                    frozen("dense_report", &key),
                    "{key}: {threads}-thread report moved off the frozen lane trace"
                );
            }
            assert_eq!(
                digest(serial_fingerprint(kernel, &cfg).as_bytes()),
                frozen("dense_fingerprint", &key),
                "{key}: counters or latency moved off the frozen lane trace"
            );
        }
    }
}
