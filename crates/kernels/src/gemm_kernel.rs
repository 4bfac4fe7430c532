//! Trace models for the dense stages: the GEMM that consumes the deformable
//! column matrix, plain (implicit-GEMM) convolutions, depthwise and
//! pointwise convolutions.
//!
//! These stages are identical across the deformable variants, so they are
//! modelled with regular, well-coalesced access streams — real addresses,
//! but no per-element irregularity. The interesting physics (Fig. 7–10)
//! lives in `im2col.rs`.

use crate::im2col::address_map;
use crate::layer::DeformLayerShape;
use defcon_gpusim::trace::{BlockTrace, LaneBuf, TraceSink};

/// Output tile side of the GEMM blocking (64×64 output tile per block).
const GEMM_TILE: usize = 64;
/// K-chunk loaded per iteration.
const GEMM_KSTEP: usize = 8;

/// A tiled SGEMM `C[m×n] = A[m×k] · B[k×n]`, 256 threads per block, each
/// block computing a 64×64 output tile by marching over k in chunks.
#[derive(Debug)]
pub struct GemmKernel {
    /// Rows of A / C.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B / C.
    pub n: usize,
    /// Batch count (independent GEMMs; e.g. one per image).
    pub batch: usize,
    /// Base address of A (weights by default).
    pub a_base: u64,
    /// Base address of B (column matrix by default).
    pub b_base: u64,
    /// Base address of C.
    pub c_base: u64,
    /// Report label.
    pub name: String,
}

impl GemmKernel {
    /// GEMM for the deformable/regular convolution epilogue: weights
    /// `[c_out × c_in·k²]` times columns `[c_in·k² × outH·outW]`.
    pub fn for_conv(shape: &DeformLayerShape) -> Self {
        let (oh, ow) = shape.out_hw();
        GemmKernel {
            m: shape.c_out,
            k: shape.c_in * shape.kernel * shape.kernel,
            n: oh * ow,
            batch: shape.n,
            a_base: address_map::WEIGHTS,
            b_base: address_map::COLUMNS,
            c_base: address_map::OUTPUT,
            name: "conv_gemm".into(),
        }
    }

    fn tiles(&self) -> (usize, usize) {
        (self.m.div_ceil(GEMM_TILE), self.n.div_ceil(GEMM_TILE))
    }
}

impl BlockTrace for GemmKernel {
    fn grid_blocks(&self) -> usize {
        let (tm, tn) = self.tiles();
        self.batch * tm * tn
    }

    fn block_threads(&self) -> usize {
        256
    }

    fn label(&self) -> String {
        self.name.clone()
    }

    /// Every field, via `Debug`: the trace reads nothing else.
    fn memo_key(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let (tm, tn) = self.tiles();
        let b = block % (tm * tn);
        let batch = block / (tm * tn);
        let (ti, tj) = (b / tn, b % tn);
        let rows = GEMM_TILE.min(self.m - ti * GEMM_TILE);
        let cols = GEMM_TILE.min(self.n - tj * GEMM_TILE);

        let a_batch = self.a_base; // weights shared across the batch
        let b_batch = self.b_base + (batch * self.k * self.n * 4) as u64;
        let c_batch = self.c_base + (batch * self.m * self.n * 4) as u64;

        for k0 in (0..self.k).step_by(GEMM_KSTEP) {
            let ksz = GEMM_KSTEP.min(self.k - k0);
            // Stage A panel (rows × ksz) and B panel (ksz × cols) through
            // global memory. The 256 threads load the panel cooperatively:
            // lane addresses are gathered panel-wide and issued as full
            // 32-lane warp instructions (each lane one float), the way a
            // real tiled GEMM stages its shared-memory tiles.
            // The panel's lane addresses are streamed straight into the
            // sink in the same flattened row-major order — and the same
            // 32-lane warp boundaries — the old collect-then-`chunks(32)`
            // produced, without materializing the panel address list.
            let mut stage = |base: u64,
                             row_len: usize,
                             rows_here: usize,
                             row0: usize,
                             col0: usize,
                             width: usize| {
                let total = rows_here * width;
                for chunk0 in (0..total).step_by(32) {
                    sink.global_load_into((chunk0..(chunk0 + 32).min(total)).map(|i| {
                        let (r, w0) = (i / width, i % width);
                        base + (((row0 + r) * row_len + col0 + w0) * 4) as u64
                    }));
                }
            };
            stage(a_batch, self.k, rows, ti * GEMM_TILE, k0, ksz);
            stage(b_batch, self.n, ksz, k0, tj * GEMM_TILE, cols);
            // Each output element accumulates ksz FMAs.
            sink.fma((rows * cols * ksz) as u64);
            // Loop/address overhead.
            sink.alu((rows * cols) as u64 / 4);
        }
        // Write the output tile.
        for r in 0..rows {
            let row_addr = c_batch + (((ti * GEMM_TILE + r) * self.n + tj * GEMM_TILE) * 4) as u64;
            for w0 in (0..cols).step_by(32) {
                let lanes = 32.min(cols - w0);
                sink.global_store_into((0..lanes).map(|l| row_addr + ((w0 + l) * 4) as u64));
            }
        }
    }
}

/// Output channels computed per block by the implicit-GEMM convolution
/// (register/shared-memory tiling amortizes each loaded input tap over this
/// many output accumulators, as cuDNN-style kernels do).
const CO_PER_BLOCK: usize = 32;

/// A plain (rigid) convolution modelled as implicit GEMM: the tap loads are
/// regular and cacheable, there is no offset tensor and no interpolation.
/// Used for the offset-predicting convolutions and every non-DCN layer in
/// the end-to-end model simulations.
#[derive(Debug)]
pub struct RegularConvKernel {
    /// Layer shape (kernel/stride/pad fields describe the window).
    pub shape: DeformLayerShape,
    /// Report label.
    pub name: String,
}

impl RegularConvKernel {
    /// Standard constructor.
    pub fn new(shape: DeformLayerShape, name: &str) -> Self {
        RegularConvKernel {
            shape,
            name: name.into(),
        }
    }

    fn tiles(&self) -> (usize, usize) {
        let (oh, ow) = self.shape.out_hw();
        (oh.div_ceil(8), ow.div_ceil(32))
    }

    #[inline]
    fn input_addr(&self, ni: usize, ci: usize, y: usize, x: usize) -> u64 {
        let s = &self.shape;
        address_map::INPUT + 4 * (((ni * s.c_in + ci) * s.h + y) * s.w + x) as u64
    }
}

impl BlockTrace for RegularConvKernel {
    fn grid_blocks(&self) -> usize {
        let (ty, tx) = self.tiles();
        self.shape.n * self.shape.c_out.div_ceil(CO_PER_BLOCK) * ty * tx
    }

    fn block_threads(&self) -> usize {
        256
    }

    fn label(&self) -> String {
        self.name.clone()
    }

    /// Every field, via `Debug`: the trace reads nothing else.
    fn memo_key(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let s = &self.shape;
        let (oh, ow) = s.out_hw();
        let (ty_count, tx_count) = self.tiles();
        let per_n = s.c_out.div_ceil(CO_PER_BLOCK) * ty_count * tx_count;
        let ni = block / per_n;
        let rem = block % per_n;
        let co_blk = rem / (ty_count * tx_count);
        let t = rem % (ty_count * tx_count);
        let (tile_y, tile_x) = (t / tx_count, t % tx_count);
        let co_here = CO_PER_BLOCK.min(s.c_out - co_blk * CO_PER_BLOCK);

        // 8 rows × 32 cols of output positions per block; each warp is one
        // output row (32 consecutive columns). Lane staging is `LaneBuf` /
        // iterator based — no heap allocation per block.
        let mut lanes: LaneBuf<usize> = LaneBuf::new();
        for r in 0..8usize {
            let oy = tile_y * 8 + r;
            if oy >= oh {
                continue;
            }
            lanes.fill_from((0..32).map(|l| tile_x * 32 + l).filter(|&ox| ox < ow));
            if lanes.is_empty() {
                continue;
            }
            let nl = lanes.len() as u64;
            for ci in 0..s.c_in {
                for ki in 0..s.kernel {
                    let iy = oy * s.stride + ki;
                    if iy < s.pad || iy - s.pad >= s.h {
                        continue;
                    }
                    for kj in 0..s.kernel {
                        // One coalesced warp load per (ci, tap): lanes read
                        // consecutive x.
                        sink.global_load_into(lanes.iter().filter_map(|&ox| {
                            let ix = ox * s.stride + kj;
                            (ix >= s.pad && ix - s.pad < s.w)
                                .then(|| self.input_addr(ni, ci, iy - s.pad, ix - s.pad))
                        }));
                        // co_here output channels accumulate from this tap.
                        sink.fma(nl * co_here as u64);
                    }
                }
            }
            // Weight traffic: per block, each (ci, tap, co) weight is read
            // once into registers/smem — model one coalesced stream.
            let wf = s.c_in * s.kernel * s.kernel * co_here;
            for w0 in (0..wf).step_by(32) {
                let lanes_w = 32.min(wf - w0);
                sink.global_load_into(
                    (0..lanes_w).map(|l| address_map::WEIGHTS + ((w0 + l) * 4) as u64),
                );
            }
            // Output stores.
            for co in 0..co_here {
                sink.global_store_into(lanes.iter().map(|&ox| {
                    address_map::OUTPUT
                        + 4 * (((ni * s.c_out + co_blk * CO_PER_BLOCK + co) * oh + oy) * ow + ox)
                            as u64
                }));
            }
        }
    }
}

/// Depthwise 3×3 convolution trace (one channel per block row-group).
#[derive(Debug)]
pub struct DepthwiseConvKernel {
    /// Layer shape; `c_out` is ignored (depthwise keeps channels).
    pub shape: DeformLayerShape,
}

impl BlockTrace for DepthwiseConvKernel {
    fn grid_blocks(&self) -> usize {
        let (oh, ow) = self.shape.out_hw();
        self.shape.n * self.shape.c_in * oh.div_ceil(8) * ow.div_ceil(32)
    }

    fn block_threads(&self) -> usize {
        256
    }

    fn label(&self) -> String {
        "depthwise_conv".into()
    }

    /// Every field, via `Debug`: the trace reads nothing else.
    fn memo_key(&self) -> Option<String> {
        Some(format!("{self:?}"))
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let s = &self.shape;
        let (oh, ow) = s.out_hw();
        let (ty_count, tx_count) = (oh.div_ceil(8), ow.div_ceil(32));
        let per_c = ty_count * tx_count;
        let ci = (block / per_c) % s.c_in;
        let ni = block / (s.c_in * per_c);
        let t = block % per_c;
        let (tile_y, tile_x) = (t / tx_count, t % tx_count);
        let mut lanes: LaneBuf<usize> = LaneBuf::new();
        for r in 0..8usize {
            let oy = tile_y * 8 + r;
            if oy >= oh {
                continue;
            }
            lanes.fill_from((0..32).map(|l| tile_x * 32 + l).filter(|&ox| ox < ow));
            if lanes.is_empty() {
                continue;
            }
            let nl = lanes.len() as u64;
            for ki in 0..s.kernel {
                let iy = oy * s.stride + ki;
                if iy < s.pad || iy - s.pad >= s.h {
                    continue;
                }
                for kj in 0..s.kernel {
                    sink.global_load_into(lanes.iter().filter_map(|&ox| {
                        let ix = ox * s.stride + kj;
                        (ix >= s.pad && ix - s.pad < s.w).then(|| {
                            address_map::INPUT
                                + 4 * (((ni * s.c_in + ci) * s.h + iy - s.pad) * s.w + ix - s.pad)
                                    as u64
                        })
                    }));
                    sink.fma(nl);
                }
            }
            sink.global_store_into(lanes.iter().map(|&ox| {
                address_map::OUTPUT + 4 * (((ni * s.c_in + ci) * oh + oy) * ow + ox) as u64
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};

    #[test]
    fn gemm_flop_count_is_2mnk() {
        let k = GemmKernel {
            m: 64,
            k: 128,
            n: 64,
            batch: 1,
            a_base: 0,
            b_base: 1 << 24,
            c_base: 1 << 25,
            name: "t".into(),
        };
        let gpu = Gpu::with_policy(DeviceConfig::xavier_agx(), SamplePolicy::exhaustive());
        let r = gpu.launch(&k);
        assert_eq!(r.counters.flops, 2 * 64 * 128 * 64);
    }

    #[test]
    fn gemm_loads_are_fully_coalesced() {
        let k = GemmKernel {
            m: 128,
            k: 64,
            n: 128,
            batch: 1,
            a_base: 0,
            b_base: 1 << 24,
            c_base: 1 << 25,
            name: "t".into(),
        };
        let r = Gpu::new(DeviceConfig::xavier_agx()).launch(&k);
        assert!(
            r.counters.gld_efficiency() > 99.0,
            "{}",
            r.counters.gld_efficiency()
        );
    }

    #[test]
    fn bigger_gemm_takes_longer() {
        let mk = |m: usize| GemmKernel {
            m,
            k: 256,
            n: 1024,
            batch: 1,
            a_base: 0,
            b_base: 1 << 24,
            c_base: 1 << 25,
            name: "t".into(),
        };
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        assert!(gpu.launch(&mk(256)).time_ms > gpu.launch(&mk(64)).time_ms);
    }

    #[test]
    fn regular_conv_flops_match_macs() {
        let shape = DeformLayerShape::same3x3(16, 16, 32, 32);
        let k = RegularConvKernel::new(shape, "conv");
        let gpu = Gpu::with_policy(DeviceConfig::xavier_agx(), SamplePolicy::exhaustive());
        let r = gpu.launch(&k);
        // FMA counted as 2 flops; boundary taps are branched around, so the
        // count sits just below the dense-MAC bound.
        let dense = 2 * shape.conv_macs();
        assert!(r.counters.flops <= dense, "{} > {dense}", r.counters.flops);
        assert!(
            r.counters.flops as f64 > 0.95 * dense as f64,
            "{} vs {dense}",
            r.counters.flops
        );
    }

    #[test]
    fn regular_conv_is_well_coalesced() {
        let shape = DeformLayerShape::same3x3(8, 8, 64, 64);
        let r = Gpu::new(DeviceConfig::xavier_agx()).launch(&RegularConvKernel::new(shape, "conv"));
        assert!(
            r.counters.gld_efficiency() > 85.0,
            "{}",
            r.counters.gld_efficiency()
        );
    }

    #[test]
    fn depthwise_much_cheaper_than_full_conv() {
        let shape = DeformLayerShape::same3x3(64, 64, 32, 32);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let full = gpu.launch(&RegularConvKernel::new(shape, "conv"));
        let dw = gpu.launch(&DepthwiseConvKernel { shape });
        assert!(dw.counters.flops * 32 < full.counters.flops);
        assert!(dw.time_ms < full.time_ms);
    }
}
