//! Full-size network inventories for the latency experiments.
//!
//! Table III and Fig. 9 time the whole YOLACT++ network at 550×550. No
//! training is needed for that — only the per-layer shapes and which 3×3
//! slots are deformable. This module enumerates the ResNet-50/101 backbone
//! convolutions (plus an FPN/protonet/head tail) and simulates the network
//! end to end on the GPU model under any DEFCON configuration.

use defcon_core::pipeline::DefconConfig;
use defcon_gpusim::Gpu;
use defcon_kernels::gemm_kernel::{GemmKernel, RegularConvKernel};
use defcon_kernels::im2col::address_map;
use defcon_kernels::op::{simulate_regular_conv_ms, synthetic_offsets};
use defcon_kernels::DeformLayerShape;

/// One convolution of the full network.
#[derive(Clone, Copy, Debug)]
pub struct NetLayer {
    /// The convolution shape.
    pub shape: DeformLayerShape,
    /// Whether this 3×3 slot runs the deformable operator.
    pub dcn: bool,
}

/// Which 3×3 slots are deformable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DcnLayout {
    /// No deformable layers (plain YOLACT).
    None,
    /// Every 3×3 in the last `stages` stages (YOLACT++ R101 "30 DCNs").
    DenseLastStages(usize),
    /// Every `interval`-th 3×3 counted from the back (YOLACT++'s
    /// interval-3 hand placement, 10 DCNs on R101).
    Interval(usize),
    /// The paper's searched placement (Fig. 6): the stride-2 downsampling
    /// slots of conv3/4/5 plus the last blocks of conv4/conv5 — 8 DCNs on
    /// R101, "particularly beneficial in the downsampling layers".
    Searched,
}

/// ResNet bottleneck-stage description: `(blocks, width of the 3×3)`.
fn resnet_stages(depth: usize) -> Vec<(usize, usize)> {
    match depth {
        50 => vec![(3, 64), (4, 128), (6, 256), (3, 512)],
        101 => vec![(3, 64), (4, 128), (23, 256), (3, 512)],
        other => panic!("unsupported ResNet depth {other} (want 50 or 101)"),
    }
}

/// Enumerates the 3×3 bottleneck convolutions of a ResNet backbone at
/// 550×550 input, tagging each slot deformable per the layout. The spatial
/// extents follow the paper's Table II rows (138 → 69 → 35 → 18).
pub fn resnet_3x3_slots(depth: usize, layout: DcnLayout) -> Vec<NetLayer> {
    let stages = resnet_stages(depth);
    let extents = [138usize, 69, 35, 18];
    let mut slots = Vec::new();
    for (si, &(blocks, width)) in stages.iter().enumerate() {
        for b in 0..blocks {
            // The first block of stages ≥ 1 downsamples from the previous
            // extent with its 3×3 (stride 2).
            let (h, stride) = if b == 0 && si > 0 {
                (extents[si - 1], 2)
            } else {
                (extents[si], 1)
            };
            slots.push(NetLayer {
                shape: DeformLayerShape {
                    n: 1,
                    c_in: width,
                    c_out: width,
                    h,
                    w: h,
                    kernel: 3,
                    stride,
                    pad: 1,
                    deform_groups: 1,
                },
                dcn: false,
            });
        }
    }
    apply_layout(&mut slots, &stages, layout);
    slots
}

fn apply_layout(slots: &mut [NetLayer], stages: &[(usize, usize)], layout: DcnLayout) {
    let n = slots.len();
    match layout {
        DcnLayout::None => {}
        DcnLayout::DenseLastStages(k) => {
            let skip: usize = stages
                .iter()
                .take(stages.len().saturating_sub(k))
                .map(|s| s.0)
                .sum();
            for s in slots.iter_mut().skip(skip) {
                s.dcn = true;
            }
        }
        DcnLayout::Interval(interval) => {
            // Applied within the last three stages, as YOLACT++ does.
            let skip: usize = stages.first().map(|s| s.0).unwrap_or(0);
            let mut i = n as isize - 1;
            while i >= skip as isize {
                slots[i as usize].dcn = true;
                i -= interval as isize;
            }
        }
        DcnLayout::Searched => {
            // Stage-entry (downsampling) slots of stages 1..: conv3/4/5.
            let mut idx = 0usize;
            let mut starts = Vec::new();
            for (si, &(blocks, _)) in stages.iter().enumerate() {
                if si > 0 {
                    starts.push(idx);
                }
                idx += blocks;
            }
            for &s in &starts {
                slots[s].dcn = true;
            }
            // Last two blocks of the final stage and last three of the
            // penultimate stage ("the latter part of the network").
            let last_stage_start = idx - stages.last().unwrap().0;
            for s in slots[last_stage_start..].iter_mut().rev().take(2) {
                s.dcn = true;
            }
            let pen_start = last_stage_start - stages[stages.len() - 2].0;
            for s in slots[pen_start..last_stage_start].iter_mut().rev().take(3) {
                s.dcn = true;
            }
        }
    }
}

/// Number of deformable slots in an inventory.
pub fn num_dcn(slots: &[NetLayer]) -> usize {
    slots.iter().filter(|s| s.dcn).count()
}

/// Simulates the whole network under a DEFCON configuration; returns total
/// milliseconds.
///
/// Non-DCN 3×3 slots run as regular convolutions. The non-slot work —
/// bottleneck 1×1s, the stem, FPN, protonet and heads — is timed once as a
/// set of GEMM-shaped kernels and added to every configuration (it is
/// identical across configurations, exactly as in the paper's Table III
/// where only DCN handling varies).
///
/// Every launch runs on a [`Gpu::memoizing`] copy of `gpu` that lives for
/// this call only: each distinct pure GEMM/conv launch is simulated once
/// per network and its repeats replay the stored report, which is
/// byte-identical to re-simulating it. The deformable sampling launches
/// read offsets and always run; no input tensor is built, since no trace
/// reads one.
pub fn simulate_network(gpu: &Gpu, slots: &[NetLayer], config: &DefconConfig) -> f64 {
    let gpu = &gpu.memoizing();
    let mut total = 0.0f64;
    for layer in slots {
        if layer.dcn {
            let op = config.build_op(layer.shape, gpu);
            let offsets = synthetic_offsets(
                &layer.shape,
                config.bounded.unwrap_or(8.0),
                0xE2E ^ (layer.shape.c_in as u64),
            );
            // The offset conv's reports, then the deformable stage's, in
            // one running sum: `simulate_total`'s order, without an input.
            let mut reports = op.simulate_offset_conv(gpu);
            reports.extend(
                op.try_simulate_deform(gpu, &offsets)
                    .expect("DCN slot failed"),
            );
            total += reports.iter().map(|r| r.time_ms).sum::<f64>();
        } else {
            total += simulate_regular_conv_ms(gpu, &layer.shape);
        }
    }
    total + fixed_tail_ms(gpu, slots)
}

/// The configuration-independent remainder of the network: bottleneck 1×1
/// convolutions paired with each 3×3 slot, plus an FPN/protonet/head block
/// at 550-scale resolutions.
fn fixed_tail_ms(gpu: &Gpu, slots: &[NetLayer]) -> f64 {
    let mut total = 0.0;
    for layer in slots {
        let s = layer.shape;
        let (oh, ow) = s.out_hw();
        // Bottleneck reduce (4w → w) and expand (w → 4w) 1×1s.
        for (m, k) in [(s.c_in, 4 * s.c_in), (4 * s.c_out, s.c_out)] {
            let g = GemmKernel {
                m,
                k,
                n: oh * ow,
                batch: s.n,
                a_base: address_map::WEIGHTS,
                b_base: address_map::INPUT,
                c_base: address_map::OUTPUT,
                name: "bottleneck_1x1".into(),
            };
            total += gpu.launch(&g).time_ms;
        }
    }
    // FPN laterals + protonet + prediction heads at P3 resolution (69²),
    // approximated as three 256-channel 3×3 convolutions.
    let head = DeformLayerShape::same3x3(256, 256, 69, 69);
    for _ in 0..3 {
        total += gpu
            .launch(&RegularConvKernel::new(head, "head_conv"))
            .time_ms;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::DeviceConfig;

    #[test]
    fn r101_has_33_slots() {
        let slots = resnet_3x3_slots(101, DcnLayout::None);
        assert_eq!(slots.len(), 3 + 4 + 23 + 3);
        assert_eq!(num_dcn(&slots), 0);
    }

    #[test]
    fn dense_last_three_stages_is_30_dcns() {
        // Paper Table I: YOLACT++ R101 with DCN in the last 3 stages = 30.
        let slots = resnet_3x3_slots(101, DcnLayout::DenseLastStages(3));
        assert_eq!(num_dcn(&slots), 30);
    }

    #[test]
    fn interval_3_is_10_dcns() {
        // Paper: "interval of 3 … resulting in a total of 10 deformable
        // layers" on R101.
        let slots = resnet_3x3_slots(101, DcnLayout::Interval(3));
        assert_eq!(num_dcn(&slots), 10);
    }

    #[test]
    fn searched_is_8_dcns_and_includes_downsamplers() {
        // Paper Fig. 6: searched placement uses 2 fewer DCNs than the
        // interval-3 hand placement.
        let slots = resnet_3x3_slots(101, DcnLayout::Searched);
        assert_eq!(num_dcn(&slots), 8);
        // The stride-2 slots of conv3/4/5 are deformable.
        for s in slots.iter().filter(|s| s.shape.stride == 2) {
            assert!(s.dcn, "downsampling slot not deformable: {:?}", s.shape);
        }
    }

    #[test]
    fn r50_dense_is_13_dcns() {
        // Paper Table I: YOLACT++ R50 row lists 13 DCNs (last 3 stages).
        let slots = resnet_3x3_slots(50, DcnLayout::DenseLastStages(3));
        assert_eq!(num_dcn(&slots), 13);
    }

    #[test]
    fn downsampling_extents_follow_paper_rows() {
        let slots = resnet_3x3_slots(101, DcnLayout::None);
        // conv3 entry downsamples from 138², conv4 from 69², conv5 from 35².
        let strided: Vec<usize> = slots
            .iter()
            .filter(|s| s.shape.stride == 2)
            .map(|s| s.shape.h)
            .collect();
        assert_eq!(strided, vec![138, 69, 35]);
    }

    #[test]
    fn more_dcns_cost_more_baseline_time() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let cfg = DefconConfig::baseline();
        let t_none = simulate_network(&gpu, &resnet_3x3_slots(50, DcnLayout::None), &cfg);
        let t_interval =
            simulate_network(&gpu, &resnet_3x3_slots(50, DcnLayout::Interval(3)), &cfg);
        assert!(t_interval > t_none, "{t_interval} vs {t_none}");
    }

    #[test]
    fn operator_family_orders_network_time() {
        use defcon_kernels::OpFamily;
        // v2 pays modulation loads + a widened predictor on every DCN
        // slot; v3 additionally pays the in-kernel softmax. Non-DCN slots
        // are family-independent, so the end-to-end times must be
        // strictly ordered v1 < v2 < v3 on any layout with DCNs.
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let slots = resnet_3x3_slots(50, DcnLayout::Interval(3));
        let t = |family: OpFamily| {
            let cfg = DefconConfig {
                op_family: family,
                ..DefconConfig::baseline()
            };
            simulate_network(&gpu, &slots, &cfg)
        };
        let (t1, t2, t3) = (t(OpFamily::DcnV1), t(OpFamily::DcnV2), t(OpFamily::DcnV3));
        assert!(t1 < t2, "{t1} vs {t2}");
        assert!(t2 < t3, "{t2} vs {t3}");
    }
}
