//! Property-based tests over the simulator and kernel stack.
//!
//! Ported from `proptest` to the in-workspace `defcon_support::prop`
//! harness: each test keeps its original property and case count (24), and
//! pins an explicit master seed so every run exercises the same inputs.

use defcon::gpusim::report::Counters;
use defcon::prelude::*;
use defcon_support::prop::{self, Config};
use defcon_support::rng::Rng;
use defcon_support::{prop_assert, prop_assert_eq};

const CASES: u32 = 24;

/// Bilinear sampling is exact at integer coordinates for any tensor.
#[test]
fn bilinear_exact_at_integers() {
    prop::check(
        "bilinear_exact_at_integers",
        &Config::new(CASES, 0xDEFC_0001),
        |rng| {
            (
                rng.gen_range(2usize..10),
                rng.gen_range(2usize..10),
                rng.gen_range(0u64..1000),
            )
        },
        |&(h, w, seed)| {
            let t = Tensor::randn(&[1, 1, h, w], 0.0, 1.0, seed);
            for y in 0..h {
                for x in 0..w {
                    let v = defcon::tensor::sample::bilinear_sample(&t, 0, 0, y as f32, x as f32);
                    prop_assert!((v - t.at4(0, 0, y, x)).abs() < 1e-6);
                }
            }
            Ok(())
        },
    );
}

/// Bilinear sampling is bounded by the min/max of its 4 neighbours — the
/// interpolation property, for any fractional position.
#[test]
fn bilinear_within_neighbour_hull() {
    prop::check(
        "bilinear_within_neighbour_hull",
        &Config::new(CASES, 0xDEFC_0002),
        |rng| {
            (
                rng.gen_range(0.0f32..6.0),
                rng.gen_range(0.0f32..6.0),
                rng.gen_range(0u64..1000),
            )
        },
        |&(y, x, seed)| {
            let t = Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, seed);
            let v = defcon::tensor::sample::bilinear_sample(&t, 0, 0, y, x);
            prop_assert!(
                (0.0..=1.0).contains(&v),
                "sample {v} escaped the value hull"
            );
            Ok(())
        },
    );
}

/// A constant integer offset is a rigid conv over a shifted window (Dai et
/// al.'s definition of deformable sampling, `p = p_o + p_i + Δp`) — an
/// oracle independent of the deformable pipeline. With the same
/// `(dy, dx) ∈ [−2, 2]²` (zero included) on every tap and pixel, bilinear
/// weights collapse onto one texel and out-of-bounds taps read zero, so the
/// output is the pad-0 rigid conv over the zero-extended input window
/// shifted by `(dy, dx)`, with the layer's padding folded into the window.
/// Checked on strided and grouped shapes for the CPU v1 and v2 references
/// and for every simulated path: gpusim's `execute` and the accel backend,
/// each sampling method and family. DCNv2 runs twice: an all-ones mask
/// expects the rigid conv, a 0.5 mask the rigid conv with weights × 0.5
/// (which a kernel that ignored the mask would fail). DCNv3 with neutral
/// logits averages the `k²` taps: the rigid conv with weights × `1/k²`.
#[test]
fn zero_offsets_are_rigid() {
    use defcon::tensor::conv::{conv2d, Conv2dParams};
    use defcon::tensor::sample::{deform_conv2d_ref, Modulation};
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let accel = Accel::new(AccelConfig::edge());
    prop::check(
        "zero_offsets_are_rigid",
        &Config::new(CASES, 0xDEFC_0003),
        |rng| {
            let groups = rng.gen_range(1usize..3);
            (
                groups * rng.gen_range(1usize..3),
                rng.gen_range(5usize..9),
                rng.gen_range(0u64..500),
                rng.gen_range(1usize..3),
                groups,
                (rng.gen_range(-2isize..3), rng.gen_range(-2isize..3)),
            )
        },
        |&(c, hw, seed, stride, groups, (dy, dx))| {
            let shape = DeformLayerShape {
                stride,
                deform_groups: groups,
                ..DeformLayerShape::same3x3(c, 2, hw, hw)
            };
            let (oh, ow) = shape.out_hw();
            let x = Tensor::randn(&[1, c, hw, hw], 0.0, 1.0, seed);
            let w = Tensor::randn(&[2, c, 3, 3], 0.0, 0.4, seed ^ 1);
            let mut off = Tensor::zeros(&[1, shape.offset_channels(), oh, ow]);
            for (ch, plane) in off.data_mut().chunks_mut(oh * ow).enumerate() {
                plane.fill(if ch % 2 == 0 { dy } else { dx } as f32);
            }
            // Window row `i` holds input row `i − pad + dy` (zero outside
            // the input), and likewise for columns.
            let conv = shape.conv_params();
            let (wh, ww) = ((oh - 1) * stride + 3, (ow - 1) * stride + 3);
            let mut window = Tensor::zeros(&[1, c, wh, ww]);
            for ci in 0..c {
                for i in 0..wh {
                    for j in 0..ww {
                        let (sy, sx) = (
                            i as isize - conv.pad as isize + dy,
                            j as isize - conv.pad as isize + dx,
                        );
                        if (0..hw as isize).contains(&sy) && (0..hw as isize).contains(&sx) {
                            *window.at4_mut(0, ci, i, j) = x.at4(0, ci, sy as usize, sx as usize);
                        }
                    }
                }
            }
            let rigid_params = Conv2dParams { pad: 0, ..conv };
            let rigid = conv2d(&window, &w, None, &rigid_params);
            let half = conv2d(&window, &w.scale(0.5), None, &rigid_params);
            let tap_average = conv2d(&window, &w.scale(1.0 / 9.0), None, &rigid_params);
            let close = |got: &Tensor, expect: &Tensor| {
                got.dims() == expect.dims()
                    && got
                        .data()
                        .iter()
                        .zip(expect.data())
                        .all(|(p, q)| (p - q).abs() < 1e-4)
            };
            let p = shape.deform_params();
            let reference =
                |m| deform_conv2d_ref(&x, &off, m, &w, None, &p, OffsetTransform::Identity);
            let reference_v1 = reference(Modulation::None);
            prop_assert!(close(&reference_v1, &rigid), "CPU v1 reference");
            let ones = Tensor::full(&[1, groups * 9, oh, ow], 1.0);
            let halves = Tensor::full(&[1, groups * 9, oh, ow], 0.5);
            let reference_v2 = reference(Modulation::Mask(&halves));
            prop_assert!(close(&reference_v2, &half), "CPU v2 reference, 0.5 mask");
            for (family, modulation, expect) in [
                (OpFamily::DcnV1, None, &rigid),
                (OpFamily::DcnV2, Some(ones), &rigid),
                (OpFamily::DcnV2, Some(halves), &half),
                (OpFamily::DcnV3, None, &tap_average),
            ] {
                for method in SamplingMethod::ladder() {
                    let op = DeformConvOp {
                        method,
                        family,
                        modulation: modulation.clone(),
                        ..DeformConvOp::baseline(shape)
                    };
                    let gpusim = op.execute(&x, &off, &w, &gpu);
                    prop_assert!(close(&gpusim, expect), "gpusim {family:?} {method:?}");
                    let accel_out = accel.execute(&op, &x, &off, &w);
                    prop_assert!(close(&accel_out, expect), "accel {family:?} {method:?}");
                }
            }
            Ok(())
        },
    );
}

/// The coalescer never reports more sectors than active lanes × 2 and never
/// under-reports requested bytes.
#[test]
fn coalescer_bounds() {
    prop::check(
        "coalescer_bounds",
        &Config::new(CASES, 0xDEFC_0004),
        |rng| {
            let n = rng.gen_range(1usize..32);
            (0..n)
                .map(|_| rng.gen_range(0u64..1_000_000))
                .collect::<Vec<u64>>()
        },
        |addrs| {
            let r = defcon::gpusim::coalesce::coalesce(addrs, 4);
            prop_assert!(r.transactions() <= 2 * addrs.len() as u64);
            prop_assert!(r.transactions() >= 1);
            prop_assert_eq!(r.requested_bytes, addrs.len() as u64 * 4);
            prop_assert!(r.efficiency() <= 1.0 + 1e-12);
            Ok(())
        },
    );
}

/// Cache hit/miss counts always sum to the access count, and the hit rate is
/// a probability.
#[test]
fn cache_stats_consistent() {
    prop::check(
        "cache_stats_consistent",
        &Config::new(CASES, 0xDEFC_0005),
        |rng| {
            let n = rng.gen_range(1usize..200);
            (0..n)
                .map(|_| rng.gen_range(0u64..512))
                .collect::<Vec<u64>>()
        },
        |lines| {
            let geo = defcon::gpusim::device::CacheGeometry {
                size_bytes: 4096,
                line_bytes: 64,
                ways: 2,
                hit_latency: 1,
            };
            let mut c = defcon::gpusim::cache::Cache::new(geo);
            for &l in lines {
                c.access_line(l);
            }
            prop_assert_eq!(c.hits() + c.misses(), lines.len() as u64);
            prop_assert!((0.0..=1.0).contains(&c.hit_rate()));
            Ok(())
        },
    );
}

/// Simulated kernel time is positive and scales monotonically with the batch
/// dimension for the fused texture kernel.
#[test]
fn fused_kernel_time_monotone_in_work() {
    prop::check(
        "fused_kernel_time_monotone_in_work",
        &Config::new(CASES, 0xDEFC_0006),
        |rng| (rng.gen_range(4usize..17), rng.gen_range(12usize..28)),
        |&(c, hw)| {
            let gpu = Gpu::new(DeviceConfig::xavier_agx());
            let small = DeformLayerShape::same3x3(c, c, hw, hw);
            let big = DeformLayerShape::same3x3(2 * c, 2 * c, hw, hw);
            let t = |shape: DeformLayerShape| {
                let (x, off) = synthetic_inputs(&shape, 2.0, 9);
                DeformConvOp {
                    method: SamplingMethod::Tex2d,
                    ..DeformConvOp::baseline(shape)
                }
                .simulate_deform(&gpu, &x, &off)
                .iter()
                .map(|r| r.time_ms)
                .sum::<f64>()
            };
            let (ts, tb) = (t(small), t(big));
            prop_assert!(ts > 0.0);
            prop_assert!(tb > ts, "4x the MACs should not be faster: {tb} vs {ts}");
            Ok(())
        },
    );
}

/// `SamplePolicy::select` invariants for arbitrary (grid, budget) pairs:
/// sorted, unique, starts at block 0, never longer than `max_blocks`, never
/// out of range, and covers the grid up to one stride of the tail.
#[test]
fn sample_policy_select_invariants() {
    prop::check(
        "sample_policy_select_invariants",
        &Config::new(CASES, 0xDEFC_0010),
        |rng| {
            // Mix everyday grids with the huge ones that used to break the
            // f64 stride arithmetic.
            let grid = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(1usize..1_000),
                1 => rng.gen_range(1_000usize..2_000_000),
                _ => rng.gen_range(1usize << 40..1usize << 60),
            };
            (grid, rng.gen_range(1usize..2_000))
        },
        |&(grid, max_blocks)| {
            let p = SamplePolicy {
                max_blocks,
                ..SamplePolicy::default()
            };
            let idx = p.select(grid);
            prop_assert_eq!(idx.len(), max_blocks.min(grid));
            prop_assert_eq!(idx[0], 0);
            prop_assert!(
                idx.windows(2).all(|w| w[0] < w[1]),
                "sample must be strictly increasing (sorted + unique)"
            );
            prop_assert!(*idx.last().unwrap() < grid, "index out of range");
            prop_assert!(
                grid - idx.last().unwrap() <= grid.div_ceil(max_blocks),
                "tail of the grid left uncovered"
            );
            Ok(())
        },
    );
}

/// `Counters::merge` is commutative and `scale(1.0)` is the identity — the
/// algebra the parallel engine's band merge relies on.
#[test]
fn counters_merge_commutative_scale_identity() {
    // Values stay below 2^53 so the f64 round-trip inside `scale` is exact;
    // real launches are far below that.
    fn arbitrary_counters(rng: &mut defcon_support::rng::StdRng, lo: u64) -> Counters {
        Counters {
            flops: rng.gen_range(lo..1 << 50),
            alu_ops: rng.gen_range(lo..1 << 50),
            gld_requests: rng.gen_range(lo..1 << 40),
            gld_transactions: rng.gen_range(lo..1 << 40),
            gld_requested_bytes: rng.gen_range(lo..1 << 50),
            gst_requests: rng.gen_range(lo..1 << 40),
            gst_transactions: rng.gen_range(lo..1 << 40),
            gst_requested_bytes: rng.gen_range(lo..1 << 50),
            tex_requests: rng.gen_range(lo..1 << 40),
            tex_line_accesses: rng.gen_range(lo..1 << 40),
            tex_hits: rng.gen_range(lo..1 << 40),
            l1_hits: rng.gen_range(lo..1 << 40),
            l1_accesses: rng.gen_range(lo..1 << 40),
            l2_hits: rng.gen_range(lo..1 << 40),
            l2_accesses: rng.gen_range(lo..1 << 40),
            dram_read_bytes: rng.gen_range(lo..1 << 50),
            dram_write_bytes: rng.gen_range(lo..1 << 50),
        }
    }
    prop::check(
        "counters_merge_commutative_scale_identity",
        &Config::new(CASES, 0xDEFC_0011),
        |rng| (arbitrary_counters(rng, 0), arbitrary_counters(rng, 1)),
        |(a, b)| {
            let mut ab = a.clone();
            ab.merge(b);
            let mut ba = b.clone();
            ba.merge(a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(&a.scale(1.0), a);
            let mut with_zero = a.clone();
            with_zero.merge(&Counters::default());
            prop_assert_eq!(&with_zero, a);
            Ok(())
        },
    );
}

/// mAP is always within [0, 100] on arbitrary generated scenes with the
/// untrained detector.
#[test]
fn map_bounded() {
    prop::check(
        "map_bounded",
        &Config::new(CASES, 0xDEFC_0007),
        |rng| rng.gen_range(0u64..50),
        |&seed| {
            use defcon::models::trainer::{evaluate_detector, prepare};
            let mut store = ParamStore::new();
            let backbone =
                BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Regular));
            let mut det = YolactLite::new(&mut store, backbone);
            let val = prepare(&DeformedShapesConfig::default(), 2, seed).samples;
            let m = evaluate_detector(&mut det, &store, &val, 0.3);
            prop_assert!((0.0..=100.0).contains(&m.box_map));
            prop_assert!((0.0..=100.0).contains(&m.mask_map));
            Ok(())
        },
    );
}

/// The DCNv2 mask activation: `sigmoid` stays in [0, 1] and is strictly
/// monotone, for any pair of finite logits. These are the two properties
/// the modulated operator relies on — the mask can attenuate but never
/// amplify or negate a sample.
#[test]
fn sigmoid_bounded_and_monotone() {
    use defcon::tensor::sample::sigmoid;
    prop::check(
        "sigmoid_bounded_and_monotone",
        &Config::new(CASES, 0xDEFC_0008),
        |rng| (rng.gen_range(-80.0f32..80.0), rng.gen_range(1e-3f32..40.0)),
        |&(x, dx)| {
            let (lo, hi) = (sigmoid(x), sigmoid(x + dx));
            prop_assert!(
                (0.0..=1.0).contains(&lo),
                "sigmoid({x}) = {lo} escaped [0,1]"
            );
            prop_assert!((0.0..=1.0).contains(&hi));
            prop_assert!(
                lo <= hi,
                "sigmoid not monotone: σ({x})={lo} > σ({})={hi}",
                x + dx
            );
            // Strict monotonicity holds wherever f32 hasn't saturated.
            if lo > 0.0 && hi < 1.0 {
                prop_assert!(lo < hi, "σ({x})={lo} not strictly below σ({})={hi}", x + dx);
            }
            // Symmetry: σ(-x) = 1 - σ(x) (both branches of the stable form).
            prop_assert!((sigmoid(-x) - (1.0 - lo)).abs() < 1e-6);
            Ok(())
        },
    );
}

/// The DCNv3 grouped softmax: weights are positive, sum to 1 within 1e-12
/// (f64 accumulation), are invariant under a constant logit shift, and
/// permuting the logits permutes the weights identically.
#[test]
fn tap_softmax_normalized_shift_invariant_equivariant() {
    use defcon::tensor::sample::tap_softmax;
    prop::check(
        "tap_softmax_normalized_shift_invariant_equivariant",
        &Config::new(CASES, 0xDEFC_0009),
        |rng| {
            let kk = [1usize, 4, 9, 25][rng.gen_range(0usize..4)];
            let logits: Vec<f32> = (0..kk).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
            let shift = rng.gen_range(-4.0f32..4.0);
            let rot = rng.gen_range(0usize..kk);
            (logits, shift, rot)
        },
        |(logits, shift, rot)| {
            let w = tap_softmax(logits);
            let sum: f64 = w.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-12, "Σw = {sum}");
            prop_assert!(w.iter().all(|&v| v > 0.0));
            // Shift invariance: softmax(l + c) == softmax(l) up to fp noise
            // from the max-subtract (both subtract their own max, so the
            // shifted exponent arguments are identical when c is exact).
            let shifted: Vec<f32> = logits.iter().map(|&l| l + shift).collect();
            for (a, b) in tap_softmax(&shifted).iter().zip(w.iter()) {
                prop_assert!((a - b).abs() < 1e-6, "shift broke invariance: {a} vs {b}");
            }
            // Permutation equivariance: rotating the logits rotates the
            // weights bytewise (the same f64 ops run in a different order
            // only in the sum, which is why this is exact for a rotation
            // of distinct values only up to 1e-15 — assert tight).
            let rotated: Vec<f32> = (0..logits.len())
                .map(|i| logits[(i + rot) % logits.len()])
                .collect();
            let wr = tap_softmax(&rotated);
            for i in 0..logits.len() {
                let expect = w[(i + rot) % logits.len()];
                prop_assert!((wr[i] - expect).abs() < 1e-15, "permutation equivariance");
            }
            Ok(())
        },
    );
}

/// The v2 reference with an all-ones mask is bytewise the v1 reference,
/// and the v3 reference with constant logits is bytewise v2 with a flat
/// `fl(1/k²)` mask — the two reduction identities, on random shapes.
#[test]
fn family_reduction_identities_hold_on_random_shapes() {
    use defcon::tensor::sample::{deform_conv2d_ref, DeformConv2dParams, Modulation};
    prop::check(
        "family_reduction_identities_hold_on_random_shapes",
        &Config::new(12, 0xDEFC_000A),
        |rng| {
            (
                rng.gen_range(1usize..3),
                rng.gen_range(5usize..8),
                rng.gen_range(0u64..500),
                rng.gen_range(-3.0f32..3.0),
            )
        },
        |&(c, hw, seed, logit)| {
            let p = DeformConv2dParams::same3x3();
            let x = Tensor::randn(&[1, c, hw, hw], 0.0, 1.0, seed);
            let w = Tensor::randn(&[2, c, 3, 3], 0.0, 0.4, seed ^ 7);
            let off = Tensor::randn(&[1, 18, hw, hw], 0.0, 1.5, seed ^ 13);
            let reference =
                |m| deform_conv2d_ref(&x, &off, m, &w, None, &p, OffsetTransform::Identity);
            let ones = Tensor::full(&[1, 9, hw, hw], 1.0);
            let v1 = reference(Modulation::None);
            let v2 = reference(Modulation::Mask(&ones));
            prop_assert_eq!(v1.data(), v2.data());
            let logits = Tensor::full(&[1, 9, hw, hw], logit);
            let flat = Tensor::full(&[1, 9, hw, hw], (1.0f64 / 9.0) as f32);
            let v3 = reference(Modulation::Softmax(&logits));
            let v2_flat = reference(Modulation::Mask(&flat));
            prop_assert_eq!(v3.data(), v2_flat.data());
            Ok(())
        },
    );
}
