//! Trace models for the dense stages: the GEMM that consumes the deformable
//! column matrix, plain (implicit-GEMM) convolutions, depthwise and
//! pointwise convolutions.
//!
//! These stages are identical across the deformable variants, so they are
//! modelled with regular, well-coalesced access streams — real addresses,
//! but no per-element irregularity. Every access they issue is therefore a
//! list of address runs ([`Run`]: equally spaced words along a matrix or
//! feature-map row), which the sink turns into sectors by arithmetic; no
//! lane is staged or coalesced one by one (`defcon_gpusim::trace` module
//! docs). The interesting physics (Fig. 7–10) lives in `im2col.rs`, whose
//! bilinear gathers are the per-lane accesses.

use crate::im2col::{address_map, row_segments};
use crate::layer::DeformLayerShape;
use defcon_gpusim::trace::{BlockTrace, Run, TraceSink};
use std::ops::Range;

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
            // global memory. The 256 threads load the panel cooperatively,
            // flattened row-major and issued as full 32-lane warp
            // instructions (each lane one float), the way a real tiled GEMM
            // stages its shared-memory tiles. A warp's 32 elements are one
            // run per panel row they cover.
            let mut stage = |base: u64,
                             row_len: usize,
                             rows_here: usize,
                             row0: usize,
                             col0: usize,
                             width: usize| {
                let total = rows_here * width;
                for chunk0 in (0..total).step_by(32) {
                    let chunk_end = (chunk0 + 32).min(total);
                    sink.global_load_runs(row_segments(chunk0, chunk_end, width).map(
                        |(r, c, len)| {
                            let first = base + (((row0 + r) * row_len + col0 + c) * 4) as u64;
                            Run::words(first, len)
                        },
                    ));
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
                sink.global_store_runs([Run::words(row_addr + (w0 * 4) as u64, lanes)]);
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
        // output row (32 consecutive columns), so every access is one run.
        let cols = tile_columns(s, tile_x);
        let nl = cols.len() as u64;
        for r in 0..8usize {
            let oy = tile_y * 8 + r;
            if oy >= oh {
                continue;
            }
            for ci in 0..s.c_in {
                for ki in 0..s.kernel {
                    let iy = oy * s.stride + ki;
                    if iy < s.pad || iy - s.pad >= s.h {
                        continue;
                    }
                    let row = self.input_addr(ni, ci, iy - s.pad, 0);
                    for kj in 0..s.kernel {
                        // One coalesced warp load per (ci, tap).
                        if let Some(run) = tap_run(s, &cols, kj, row) {
                            sink.global_load_runs([run]);
                        }
                        // co_here output channels accumulate from this tap.
                        sink.fma(nl * co_here as u64);
                    }
                }
            }
            // Weight traffic: per block, each (ci, tap, co) weight is read
            // once into registers/smem — model one coalesced stream.
            let wf = s.c_in * s.kernel * s.kernel * co_here;
            for w0 in (0..wf).step_by(32) {
                let first = address_map::WEIGHTS + (w0 * 4) as u64;
                sink.global_load_runs([Run::words(first, 32.min(wf - w0))]);
            }
            // Output stores.
            for co in 0..co_here {
                let row = ((ni * s.c_out + co_blk * CO_PER_BLOCK + co) * oh + oy) * ow;
                let first = address_map::OUTPUT + 4 * (row + cols.start) as u64;
                sink.global_store_runs([Run::words(first, cols.len())]);
            }
        }
    }
}

/// The output columns of column tile `tile_x` (32 wide) of `s`'s output
/// plane: one warp's lanes.
fn tile_columns(s: &DeformLayerShape, tile_x: usize) -> Range<usize> {
    let ow = s.out_hw().1;
    let start = (tile_x * 32).min(ow);
    start..(start + 32).min(ow)
}

/// The warp load of tap column `kj` by the lanes of output columns `cols`
/// from the input row whose column 0 is at byte address `row`, or `None`
/// when no lane's input column `ox·stride + kj − pad` lands inside the
/// row. That column grows with `ox`, so the lanes that land inside are one
/// interval, found by arithmetic, reading every `stride`-th word.
fn tap_run(s: &DeformLayerShape, cols: &Range<usize>, kj: usize, row: u64) -> Option<Run> {
    let lo = cols.start.max(s.pad.saturating_sub(kj).div_ceil(s.stride));
    let hi = cols
        .end
        .min((s.w + s.pad).checked_sub(kj + 1)? / s.stride + 1);
    (lo < hi).then(|| Run {
        first: row + 4 * (lo * s.stride + kj - s.pad) as u64,
        lanes: hi - lo,
        spacing: 4 * s.stride as u64,
    })
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
        let cols = tile_columns(s, tile_x);
        let nl = cols.len() as u64;
        let plane = (ni * s.c_in + ci) * s.h;
        for r in 0..8usize {
            let oy = tile_y * 8 + r;
            if oy >= oh {
                continue;
            }
            for ki in 0..s.kernel {
                let iy = oy * s.stride + ki;
                if iy < s.pad || iy - s.pad >= s.h {
                    continue;
                }
                let row = address_map::INPUT + 4 * ((plane + iy - s.pad) * s.w) as u64;
                for kj in 0..s.kernel {
                    if let Some(run) = tap_run(s, &cols, kj, row) {
                        sink.global_load_runs([run]);
                    }
                    sink.fma(nl);
                }
            }
            let row = ((ni * s.c_in + ci) * oh + oy) * ow;
            let first = address_map::OUTPUT + 4 * (row + cols.start) as u64;
            sink.global_store_runs([Run::words(first, cols.len())]);
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
