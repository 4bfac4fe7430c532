//! The fused texture deformable-convolution kernel — DEFCON's inference
//! kernel.
//!
//! Once sampling is a single hardware-filtered texture fetch, there is no
//! reason to materialize the im2col column matrix at all: the fetched value
//! can feed the convolution's FMAs directly. This fused implicit-GEMM
//! structure eliminates the column buffer's DRAM round trip (write in the
//! sampling kernel + read in the GEMM kernel — by far the largest traffic
//! of the baseline at `C_in·k²` floats per output position) and is how one
//! would actually write the kernel the paper describes ("load channel-wise
//! coordinate offsets to the GPU texture units and perform bilinear
//! interpolation using GPU hardware").
//!
//! Mapping: grid = `N ×` spatial output tiles; one thread per output
//! position; each thread accumulates **all** `C_out` outputs of its position
//! in registers while looping over `(tap, c_in)`, fetching each sample
//! exactly once.

use crate::im2col::{address_map, bind_texture, sample_coord, trace_tap_prologue, OutputTile};
use crate::layer::{DeformLayerShape, TileConfig};
use crate::op::{DeformConvOp, OpFamily, SamplingMethod};
use defcon_gpusim::texture::LayeredTexture2d;
use defcon_gpusim::trace::{BlockTrace, TraceSink};
use defcon_gpusim::DeviceConfig;
use defcon_support::error::DefconError;
use defcon_tensor::sample::OffsetTransform;
use defcon_tensor::Tensor;

/// The fused deformable convolution kernel over a layered texture: a trace
/// of where the offsets place its taps, holding no input tensor.
pub struct FusedTexDeformKernel<'a> {
    /// Layer shape.
    pub shape: DeformLayerShape,
    /// Spatial thread-block tile (the Fig. 8 search knob).
    pub tile: TileConfig,
    /// Offsets `[N, 2·G·k², outH, outW]`.
    pub offsets: &'a Tensor,
    /// Offset post-processing.
    pub offset_transform: OffsetTransform,
    /// The layered texture the input is bound as.
    pub texture: LayeredTexture2d,
    /// Texture sampling method (`tex2D` or `tex2D++`; names the launch).
    pub method: SamplingMethod,
    /// Output-channel blocking factor: the grid is additionally split into
    /// `co_blocks` channel groups so small feature maps still fill every
    /// SM; each group re-fetches the samples (the honest cost of the
    /// split). [`FusedTexDeformKernel::new`] sets it with
    /// [`FusedTexDeformKernel::pick_co_blocks`].
    pub co_blocks: usize,
    /// Operator generation; gates the modulation loads and arithmetic
    /// (v1 traces are byte-identical to the pre-family kernel).
    pub family: OpFamily,
}

impl<'a> FusedTexDeformKernel<'a> {
    /// DEFCON's kernel for the texture method of `op` at `offsets`: binds
    /// the input's layered texture (border addressing, the method's filter
    /// precision) within `cfg`'s texture limits and splits the output
    /// channels into [`FusedTexDeformKernel::pick_co_blocks`] blocks for
    /// `cfg`. A texture
    /// the limits cannot hold is the degradable `texture-limit` constraint;
    /// a software-method op has no texture to fuse and is a
    /// [`DefconError::Constraint`] too.
    pub fn new(
        op: &DeformConvOp,
        offsets: &'a Tensor,
        cfg: &DeviceConfig,
    ) -> Result<Self, DefconError> {
        let texture =
            bind_texture(op, cfg.texture_limits())?.ok_or_else(|| DefconError::Constraint {
                what: "fused-kernel".into(),
                detail: format!("{} sampling binds no texture to fuse", op.method.name()),
            })?;
        Ok(FusedTexDeformKernel {
            shape: op.shape,
            tile: op.tile,
            offsets,
            offset_transform: op.offset_transform,
            texture,
            method: op.method,
            co_blocks: Self::pick_co_blocks(&op.shape, op.tile, cfg),
            family: op.family,
        })
    }

    /// Channel-blocking factor minimizing a first-order time estimate:
    /// splitting output channels across `B` blocks fills more SMs and
    /// shrinks per-block compute, but re-fetches every sample `B` times.
    /// The estimate mirrors the engine's wave/roofline model.
    pub fn pick_co_blocks(shape: &DeformLayerShape, tile: TileConfig, cfg: &DeviceConfig) -> usize {
        let (rows, columns) = OutputTile::grid(shape, tile);
        let spatial = (shape.n * rows * columns).max(1);
        let tile_elems = tile.threads() as f64;
        let fetches_per_block = (shape.c_in * shape.kernel * shape.kernel) as f64 * tile_elems;
        let macs = shape.conv_macs() as f64;
        let mut best = (f64::INFINITY, 1usize);
        let mut b = 1usize;
        while b <= 32 && shape.c_out / b >= 8 {
            let blocks = (spatial * b) as f64;
            let tex_blk = fetches_per_block / cfg.tex_filter_rate_fp32;
            let fma_blk = macs / blocks / (2.0 * cfg.fp32_lanes_per_sm as f64);
            let block_time =
                tex_blk.max(fma_blk) + (1.0 - cfg.overlap_efficiency) * (tex_blk.min(fma_blk));
            // The engine spreads block work evenly over SMs (no wave
            // quantization), but a grid smaller than the SM count leaves
            // chips idle — mirror both behaviours.
            let waves = (blocks / cfg.num_sms as f64).max(1.0);
            let t = waves * block_time;
            if t < best.0 {
                best = (t, b);
            }
            b *= 2;
        }
        best.1
    }
}

impl BlockTrace for FusedTexDeformKernel<'_> {
    fn grid_blocks(&self) -> usize {
        let (rows, columns) = OutputTile::grid(&self.shape, self.tile);
        self.shape.n * self.co_blocks * rows * columns
    }

    fn block_threads(&self) -> usize {
        self.tile.threads()
    }

    fn label(&self) -> String {
        format!(
            "deform_fused_{}{}",
            self.method.label_stem(),
            self.family.label_suffix()
        )
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let (rows, columns) = OutputTile::grid(&s, self.tile);
        let per_n = self.co_blocks * rows * columns;
        let ni = block / per_n;
        let rem = block % per_n;
        let co_blk = rem / (rows * columns);
        let out_tile = OutputTile::nth(&s, self.tile, rem % (rows * columns));
        let kk = s.kernel * s.kernel;
        let ch_per_group = s.c_in / s.deform_groups;
        // This block's slice of output channels.
        let co_per_blk = s.c_out.div_ceil(self.co_blocks);
        let co_lo = co_blk * co_per_blk;
        let co_here = co_per_blk.min(s.c_out.saturating_sub(co_lo));
        if co_here == 0 {
            return;
        }

        // All warp events are staged through fixed-capacity `LaneBuf`s /
        // sink iterators — no heap allocation per block (see
        // `tests/zero_alloc.rs`).
        out_tile.for_each_warp(|lanes| {
            let nl = lanes.len() as u64;
            for g in 0..s.deform_groups {
                for tap in 0..kk {
                    // Offsets and modulation load once per (group, tap):
                    // every channel of the group shares them.
                    trace_tap_prologue(sink, &s, self.family, lanes, ni, g, tap);
                    // Every channel of this deformable group samples at the
                    // same coordinates, so stage the warp's fetch plans once
                    // per (g, tap): the coordinate transform and the
                    // floor/quantize/address-mode work are shared by every
                    // channel of the group (the layers differ, the plans do
                    // not), so each per-channel fetch below is just a plan
                    // replay — the footprint's addresses and the cache walk.
                    sink.tex_stage_warp(
                        &self.texture,
                        lanes.iter().map(|&p| {
                            sample_coord(&s, self.offsets, self.offset_transform, ni, g, tap, p)
                        }),
                    );
                    // Each sample feeds C_out FMAs.
                    for ci in g * ch_per_group..(g + 1) * ch_per_group {
                        sink.tex_fetch_staged_warp(&self.texture, ni * s.c_in + ci);
                        // The fetched sample multiplies into this block's
                        // output-channel register accumulators.
                        sink.fma(nl * co_here as u64);
                    }
                }
            }
        });
        // Weight streaming: each (ci, tap, co) weight read once per block,
        // coalesced (served from L2 after the first block touches it).
        let wf = s.c_in * kk * co_here;
        for w0 in (0..wf).step_by(32) {
            let lanes_w = 32.min(wf - w0);
            sink.global_load_into(
                (0..lanes_w).map(|l| address_map::WEIGHTS + ((w0 + l) * 4) as u64),
            );
        }
        // Output stores: C_out values per covered position.
        out_tile.for_each_warp(|lanes| {
            for co in co_lo..co_lo + co_here {
                sink.global_store_into(lanes.iter().map(|&(oy, ox)| {
                    address_map::OUTPUT + 4 * (((ni * s.c_out + co) * oh + oy) * ow + ox) as u64
                }));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::synthetic_offsets;
    use defcon_gpusim::Gpu;

    fn build(
        method: SamplingMethod,
        shape: DeformLayerShape,
        off: &Tensor,
    ) -> FusedTexDeformKernel<'_> {
        let op = DeformConvOp {
            method,
            ..DeformConvOp::baseline(shape)
        };
        FusedTexDeformKernel::new(&op, off, &DeviceConfig::xavier_agx()).unwrap()
    }

    #[test]
    fn software_op_is_a_typed_constraint() {
        let shape = DeformLayerShape::same3x3(4, 4, 8, 8);
        let off = synthetic_offsets(&shape, 2.0, 6);
        let op = DeformConvOp::baseline(shape);
        let err = FusedTexDeformKernel::new(&op, &off, &DeviceConfig::xavier_agx()).err();
        assert!(
            matches!(&err, Some(DefconError::Constraint { what, .. }) if what == "fused-kernel"),
            "{err:?}"
        );
    }

    #[test]
    fn grid_is_spatial_only() {
        let shape = DeformLayerShape::same3x3(32, 32, 33, 33);
        let off = synthetic_offsets(&shape, 2.0, 1);
        let k = build(SamplingMethod::Tex2d, shape, &off);
        // 33x33 output, 16x16 tiles -> 3x3 tiles, one batch.
        assert_eq!(k.grid_blocks(), 9);
    }

    #[test]
    fn fetch_count_is_cin_k2_per_output() {
        let shape = DeformLayerShape::same3x3(8, 4, 16, 16);
        let off = synthetic_offsets(&shape, 2.0, 2);
        let k = build(SamplingMethod::Tex2d, shape, &off);
        let gpu = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            defcon_gpusim::SamplePolicy::exhaustive(),
        );
        let r = gpu.launch(&k);
        let expect = (8 * 9 * 16 * 16) as u64; // C_in · k² · outH · outW lane-fetches
                                               // tex_requests counts warp instructions; fetch lanes are grouped by
                                               // 32-thread warps over a 256-thread tile -> expect/lanes rounded up.
        assert!(
            r.counters.tex_requests >= expect / 32,
            "{} < {}",
            r.counters.tex_requests,
            expect / 32
        );
        // FMA accounting: one FMA per fetched sample per output channel
        // (c_out = 4), counted as 2 flops, plus a small coordinate-math tax.
        let conv_flops = 2 * expect * 4;
        assert!(
            r.counters.flops >= conv_flops,
            "{} < {conv_flops}",
            r.counters.flops
        );
        assert!(
            (r.counters.flops as f64) < 1.2 * conv_flops as f64,
            "{} vs {conv_flops}",
            r.counters.flops
        );
    }

    #[test]
    fn no_column_traffic() {
        let shape = DeformLayerShape::same3x3(16, 16, 32, 32);
        let off = synthetic_offsets(&shape, 2.0, 3);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let r = gpu.launch(&build(SamplingMethod::Tex2d, shape, &off));
        // Global stores are exactly the output tensor (per simulated share).
        let out_bytes = r.counters.gst_requested_bytes;
        let expect = (16 * 32 * 32 * 4) as u64;
        assert!(
            ((out_bytes as f64) - (expect as f64)).abs() / (expect as f64) < 0.1,
            "store bytes {out_bytes} vs output size {expect}"
        );
    }

    #[test]
    fn tex2dpp_not_slower_than_tex2d() {
        let shape = DeformLayerShape::same3x3(64, 64, 35, 35);
        let off = synthetic_offsets(&shape, 4.0, 4);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let t2 = gpu.launch(&build(SamplingMethod::Tex2d, shape, &off));
        let tpp = gpu.launch(&build(SamplingMethod::Tex2dPlusPlus, shape, &off));
        assert!(
            tpp.time_ms <= t2.time_ms,
            "tex2D++ {} > tex2D {}",
            tpp.time_ms,
            t2.time_ms
        );
    }

    #[test]
    fn gld_efficiency_is_high() {
        // The fused kernel's only global loads are coalesced offsets and
        // weights — Fig. 10's "GLD efficiency reaches 100%".
        let shape = DeformLayerShape::same3x3(32, 32, 32, 32);
        let off = synthetic_offsets(&shape, 4.0, 5);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let r = gpu.launch(&build(SamplingMethod::Tex2d, shape, &off));
        assert!(
            r.counters.gld_efficiency() > 95.0,
            "{}",
            r.counters.gld_efficiency()
        );
    }
}
