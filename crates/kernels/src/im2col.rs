//! The sampling (im2col) stage of deformable convolution.
//!
//! This is the kernel DEFCON rewrites: for every output position and kernel
//! tap it computes the deformed sampling coordinate and materializes the
//! bilinearly-interpolated value into the column matrix consumed by the
//! GEMM stage. The *software* variant (what PyTorch/mmcv ship) performs the
//! interpolation manually from global memory; the *texture* variants bind
//! the input feature map as a layered 2-D texture and let the texture unit
//! filter.

use crate::layer::{DeformLayerShape, TileConfig};
use crate::op::{DeformConvOp, OpFamily, SamplingMethod};
use defcon_gpusim::texture::LayeredTexture2d;
use defcon_gpusim::trace::{BlockTrace, LaneBuf, Run, TraceSink};
use defcon_support::error::DefconError;
use defcon_tensor::sample::{bilinear_sample, tap_softmax, OffsetTransform};
use defcon_tensor::Tensor;

/// Simulated address-space bases (one region per buffer, far apart so cache
/// sets are shared realistically but regions never alias).
pub mod address_map {
    /// Input feature map (NCHW, row-major).
    pub const INPUT: u64 = 0x1000_0000;
    /// Offset tensor.
    pub const OFFSETS: u64 = 0x2000_0000;
    /// Column buffer.
    pub const COLUMNS: u64 = 0x3000_0000;
    /// Filter weights.
    pub const WEIGHTS: u64 = 0x4000_0000;
    /// Output tensor.
    pub const OUTPUT: u64 = 0x5000_0000;
    /// Modulation tensor (DCNv2 mask / DCNv3 logits).
    pub const MODULATION: u64 = 0x6000_0000;
    /// Texture storage.
    pub const TEXTURE: u64 = 0x8000_0000;
}

/// Binds the layered texture `op`'s method samples the input through —
/// one `(n, c)` slice per layer, border addressing, the method's filter
/// precision — within the device's `(max layers, max extent)` texture
/// limits. It is geometry taken from `op.shape`: binding copies nothing.
/// `None` for software sampling, which reads global memory. A texture the
/// limits cannot hold (or an injected `texture.limit` fault) is the
/// degradable `texture-limit` constraint the fallback ladder dispatches on.
pub(crate) fn bind_texture(
    op: &DeformConvOp,
    (max_layers, max_dim): (usize, usize),
) -> Result<Option<LayeredTexture2d>, DefconError> {
    let Some(frac_bits) = op.method.frac_bits() else {
        return Ok(None);
    };
    let s = op.shape;
    let mut texture = LayeredTexture2d::new(
        s.n * s.c_in,
        s.h,
        s.w,
        address_map::TEXTURE,
        max_layers,
        max_dim,
    )?;
    texture.frac_bits = frac_bits;
    Ok(Some(texture))
}

/// `InvalidShape` unless `t` has `dims`, naming both shapes.
pub(crate) fn check_dims(what: &str, t: &Tensor, dims: &[usize]) -> Result<(), DefconError> {
    if t.dims() == dims {
        return Ok(());
    }
    Err(DefconError::InvalidShape {
        what: what.into(),
        detail: format!("expected {dims:?}, got {:?}", t.dims()),
    })
}

/// The output tile one thread block covers. Threads cover the tile
/// row-major; lanes of one warp are consecutive threads (so consecutive
/// output columns, wrapping at tile width — the standard CUDA mapping).
pub(crate) struct OutputTile {
    tile: TileConfig,
    y0: usize,
    x0: usize,
    out_hw: (usize, usize),
}

impl OutputTile {
    /// The tile grid `(rows, columns)` covering `shape`'s output plane.
    pub(crate) fn grid(shape: &DeformLayerShape, tile: TileConfig) -> (usize, usize) {
        let (oh, ow) = shape.out_hw();
        (oh.div_ceil(tile.h), ow.div_ceil(tile.w))
    }

    /// Tile `t` of that grid, counted row-major.
    pub(crate) fn nth(shape: &DeformLayerShape, tile: TileConfig, t: usize) -> Self {
        let columns = Self::grid(shape, tile).1;
        OutputTile {
            tile,
            y0: (t / columns) * tile.h,
            x0: (t % columns) * tile.w,
            out_hw: shape.out_hw(),
        }
    }

    /// Calls `f` with each warp of the tile, dropping lanes past the
    /// plane's edge and warps left with none. The warp is staged in
    /// fixed-capacity `LaneBuf`s, so walking the warps allocates nothing
    /// (see `tests/zero_alloc.rs`).
    pub(crate) fn for_each_warp(&self, mut f: impl FnMut(&TileWarp)) {
        let threads = self.tile.threads();
        let (oh, ow) = self.out_hw;
        let mut warp = TileWarp {
            lanes: LaneBuf::new(),
            rows: LaneBuf::new(),
            out_hw: self.out_hw,
        };
        for warp_start in (0..threads).step_by(32) {
            let warp_end = (warp_start + 32).min(threads);
            warp.rows
                .fill_from(row_segments(warp_start, warp_end, self.tile.w).filter_map(
                    |(r, c, len)| {
                        let (oy, ox) = (self.y0 + r, self.x0 + c);
                        (oy < oh && ox < ow).then(|| (oy, ox, len.min(ow - ox)))
                    },
                ));
            warp.lanes.fill_from(
                warp.rows
                    .iter()
                    .flat_map(|&(oy, ox, len)| (ox..ox + len).map(move |ox| (oy, ox))),
            );
            if !warp.lanes.is_empty() {
                f(&warp);
            }
        }
    }
}

/// One warp of an [`OutputTile`], in two forms: the output position of
/// every live lane, for the accesses that scatter per lane (the sampling
/// coordinates), and the same lanes as one run of columns per output row,
/// for the dense accesses to `[.., outH, outW]` planes.
pub(crate) struct TileWarp {
    /// `(oy, ox)` of each live lane, in lane order.
    pub(crate) lanes: LaneBuf<(usize, usize)>,
    /// `(oy, first ox, lanes)` of each output row the warp covers, in lane
    /// (so ascending) order.
    rows: LaneBuf<(usize, usize, usize)>,
    /// The output plane's `(outH, outW)`.
    out_hw: (usize, usize),
}

impl TileWarp {
    /// The warp's word runs in plane `ch` of the `[N, channels, outH,
    /// outW]` tensor at `base`: one per output row, ascending.
    pub(crate) fn plane_runs(
        &self,
        base: u64,
        ni: usize,
        channels: usize,
        ch: usize,
    ) -> impl Iterator<Item = Run> + '_ {
        let (oh, ow) = self.out_hw;
        let plane = base + 4 * ((ni * channels + ch) * oh * ow) as u64;
        self.rows
            .iter()
            .map(move |&(oy, ox, len)| Run::words(plane + 4 * (oy * ow + ox) as u64, len))
    }
}

/// The row segments `(row, column, len)` of the row-major index range
/// `start..end` of a matrix `width` wide, in index order: how a warp of
/// consecutive threads (or a 32-element chunk of a staged panel) splits
/// into runs along rows.
pub(crate) fn row_segments(
    start: usize,
    end: usize,
    width: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let mut i = start;
    std::iter::from_fn(move || {
        (i < end).then(|| {
            let (row, col) = (i / width, i % width);
            let len = (width - col).min(end - i);
            i += len;
            (row, col, len)
        })
    })
}

/// The warp prologue both deformable trace kernels emit per (group, tap):
/// two coalesced loads of the (Δy, Δx) offsets, the sampling-position
/// arithmetic, then the family's modulation traffic. Gated on the family
/// (not on a modulation tensor being present) so a served request without
/// one still traces honestly; `DcnV1` emits nothing extra and stays
/// byte-identical to the pre-family kernels. The offset and modulation
/// planes are dense: each load is the warp's runs along its output rows.
pub(crate) fn trace_tap_prologue(
    sink: &mut TraceSink,
    shape: &DeformLayerShape,
    family: OpFamily,
    warp: &TileWarp,
    ni: usize,
    g: usize,
    tap: usize,
) {
    let kk = shape.kernel * shape.kernel;
    let ch = 2 * (g * kk + tap);
    for c in [ch, ch + 1] {
        sink.global_load_runs(warp.plane_runs(
            address_map::OFFSETS,
            ni,
            shape.offset_channels(),
            c,
        ));
    }
    let nl = warp.lanes.len() as u64;
    sink.alu(4 * nl);
    sink.flop(4 * nl); // p = p_o + p_i + Δp (fp adds, x and y)
    let (flops, alus) = match family {
        OpFamily::DcnV1 => return,
        // The per-lane mask multiply.
        OpFamily::DcnV2 => (nl, 0),
        // The tap's share of the grouped softmax: exp, normalizing
        // accumulate, weighted multiply (≈3 flops/lane) and the
        // max-subtract bookkeeping.
        OpFamily::DcnV3 => (3 * nl, nl),
    };
    // One coalesced mask (v2) or logit (v3) load.
    sink.global_load_runs(warp.plane_runs(
        address_map::MODULATION,
        ni,
        shape.deform_groups * kk,
        g * kk + tap,
    ));
    sink.flop(flops);
    sink.alu(alus);
}

/// The sampling coordinate of `tap` at output `(oy, ox)` for deformable
/// group `g` of batch item `ni`: `p = p_o + p_i + Δp_i`, with `transform`
/// applied to the raw offsets.
#[inline]
pub(crate) fn sample_coord(
    shape: &DeformLayerShape,
    offsets: &Tensor,
    transform: OffsetTransform,
    ni: usize,
    g: usize,
    tap: usize,
    (oy, ox): (usize, usize),
) -> (f32, f32) {
    let (ki, kj) = (tap / shape.kernel, tap % shape.kernel);
    let ch = 2 * (g * shape.kernel * shape.kernel + tap);
    let dy = transform.apply(offsets.at4(ni, ch, oy, ox));
    let dx = transform.apply(offsets.at4(ni, ch + 1, oy, ox));
    let py = (oy * shape.stride + ki) as f32 - shape.pad as f32 + dy;
    let px = (ox * shape.stride + kj) as f32 - shape.pad as f32 + dx;
    (py, px)
}

/// The deformable im2col kernel: grid = `N × C_in × output tiles`, one
/// thread per output position in the tile, each thread materializing all
/// `k²` taps of its position for its channel. The trace reads the offsets
/// alone; [`im2col_deform_numeric_tile`] takes the input it samples.
pub struct Im2colDeformKernel<'a> {
    /// Layer shape.
    pub shape: DeformLayerShape,
    /// Thread-block tile over the output plane.
    pub tile: TileConfig,
    /// Offsets `[N, 2·G·k², outH, outW]` (already transformed if bounding /
    /// rounding applies — see `offset_transform`).
    pub offsets: &'a Tensor,
    /// Transform applied to raw offsets when computing sample coordinates.
    pub offset_transform: OffsetTransform,
    /// Sampling implementation (names the launch).
    pub method: SamplingMethod,
    /// The layered texture the texture methods sample the input through;
    /// `None` samples in software from global memory.
    pub texture: Option<LayeredTexture2d>,
    /// Operator generation; gates the modulation loads and arithmetic
    /// (v1 traces are byte-identical to the pre-family kernel).
    pub family: OpFamily,
    /// Modulation tensor `[N, G·k², outH, outW]` — post-sigmoid mask for
    /// v2, raw logits for v3. `None` is the family's neutral element
    /// (all-ones mask / constant logits); the trace never reads the
    /// values, only the numeric path does.
    pub modulation: Option<&'a Tensor>,
}

impl<'a> Im2colDeformKernel<'a> {
    /// The sampling stage of `op` at `offsets`. The texture methods bind
    /// the input as a layered texture within the device's
    /// `(max layers, max extent)` texture limits
    /// ([`defcon_gpusim::DeviceConfig::texture_limits`]); a texture the
    /// limits cannot hold is the degradable `texture-limit` constraint.
    pub fn new(
        op: &'a DeformConvOp,
        offsets: &'a Tensor,
        texture_limits: (usize, usize),
    ) -> Result<Self, DefconError> {
        Ok(Im2colDeformKernel {
            shape: op.shape,
            tile: op.tile,
            offsets,
            offset_transform: op.offset_transform,
            method: op.method,
            texture: bind_texture(op, texture_limits)?,
            family: op.family,
            modulation: op.modulation.as_ref(),
        })
    }

    #[inline]
    fn input_addr(&self, ni: usize, ci: usize, y: usize, x: usize) -> u64 {
        let s = self.shape;
        address_map::INPUT + 4 * (((ni * s.c_in + ci) * s.h + y) * s.w + x) as u64
    }

    /// The numeric per-tap modulation factor: `1` for v1, the mask value
    /// for v2 (1 when `modulation` is `None`), and the grouped softmax
    /// weight of the tap for v3 (`fl(1/k²)` when `None` — exactly what
    /// [`tap_softmax`] yields for constant logits, so the None/constant
    /// reduction is byte-exact).
    pub fn modulation_factor(&self, ni: usize, g: usize, tap: usize, oy: usize, ox: usize) -> f32 {
        let kk = self.shape.kernel * self.shape.kernel;
        match (self.family, self.modulation) {
            (OpFamily::DcnV1, _) => 1.0,
            (OpFamily::DcnV2, None) => 1.0,
            (OpFamily::DcnV2, Some(m)) => m.at4(ni, g * kk + tap, oy, ox),
            (OpFamily::DcnV3, None) => (1.0f64 / kk as f64) as f32,
            (OpFamily::DcnV3, Some(logits)) => {
                let group: Vec<f32> = (0..kk)
                    .map(|t| logits.at4(ni, g * kk + t, oy, ox))
                    .collect();
                tap_softmax(&group)[tap] as f32
            }
        }
    }
}

impl BlockTrace for Im2colDeformKernel<'_> {
    fn grid_blocks(&self) -> usize {
        let (rows, columns) = OutputTile::grid(&self.shape, self.tile);
        self.shape.n * self.shape.c_in * rows * columns
    }

    fn block_threads(&self) -> usize {
        self.tile.threads()
    }

    fn label(&self) -> String {
        format!(
            "deform_im2col_{}{}",
            self.method.label_stem(),
            self.family.label_suffix()
        )
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let s = self.shape;
        let (rows, columns) = OutputTile::grid(&s, self.tile);
        let blocks_per_channel = rows * columns;
        let ci = (block / blocks_per_channel) % s.c_in;
        let ni = block / (s.c_in * blocks_per_channel);
        let g = ci / (s.c_in / s.deform_groups);
        let kk = s.kernel * s.kernel;

        // All warp-level event staging goes through fixed-capacity
        // `LaneBuf`s / sink iterators: this loop performs no heap
        // allocation (see `tests/zero_alloc.rs`).
        let out_tile = OutputTile::nth(&s, self.tile, block % blocks_per_channel);
        out_tile.for_each_warp(|warp| {
            let lanes = &warp.lanes;
            let nl = lanes.len() as u64;
            for tap in 0..kk {
                trace_tap_prologue(sink, &s, self.family, warp, ni, g, tap);
                let coord = |&p: &(usize, usize)| {
                    sample_coord(&s, self.offsets, self.offset_transform, ni, g, tap, p)
                };
                match &self.texture {
                    None => {
                        // 4 neighbour loads, one per corner of the
                        // bilinear quad; out-of-bounds neighbours are
                        // branched around (no load, but branch ALU cost).
                        let mut corner: LaneBuf<(isize, isize)> = LaneBuf::new();
                        corner.fill_from(
                            lanes
                                .iter()
                                .map(coord)
                                .map(|(py, px)| (py.floor() as isize, px.floor() as isize)),
                        );
                        for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            sink.global_load_into(corner.iter().filter_map(|&(y0, x0)| {
                                let (qy, qx) = (y0 + dy, x0 + dx);
                                let inside = (0..s.h as isize).contains(&qy)
                                    && (0..s.w as isize).contains(&qx);
                                inside.then(|| self.input_addr(ni, ci, qy as usize, qx as usize))
                            }));
                        }
                        // Software bilinear: weight computation (2 sub, 2
                        // one-minus) + 4 mul + 3 add ≈ 8 flops, plus the
                        // boundary branches (≈6 int ops).
                        sink.flop(8 * nl);
                        sink.alu(6 * nl);
                    }
                    Some(tex) => {
                        sink.tex_fetch_warp_into(tex, ni * s.c_in + ci, lanes.iter().map(coord));
                    }
                }

                // One coalesced column store per tap: row `ci·k² + tap` of
                // the `[N, C_in·k², outH·outW]` column matrix is an output
                // plane.
                sink.global_store_runs(warp.plane_runs(
                    address_map::COLUMNS,
                    ni,
                    s.c_in * kk,
                    ci * kk + tap,
                ));
            }
        });
    }
}

/// Numeric companion of [`Im2colDeformKernel`]: samples `x` into the
/// columns of the output window `[oy0, oy0+th) × [ox0, ox0+tw)` for batch
/// item `ni` as a `[C_in·k², th·tw]` row-major matrix (window-local column
/// index `ty·tw + tx`), with exactly the trace's sampling semantics
/// (including texture filter precision). The full output plane is the
/// one-tile window `(0, 0, outH, outW)` — how `DeformConvOp::execute`
/// calls it — while the accel backend walks its tile plan.
///
/// For v2/v3 each column value is pre-multiplied by the tap's modulation
/// factor (mask / grouped-softmax weight), so the GEMM epilogue is family
/// agnostic. A v2 all-ones mask multiplies by exactly `1.0` and therefore
/// reproduces the v1 columns byte-for-byte.
///
/// Every element goes through the same per-element pipeline whatever the
/// window, and the blocked GEMM's per-element reduction order is
/// independent of which columns are present (see `defcon_tensor::gemm`),
/// so a GEMM over a tile's columns produces byte-identical output values
/// to the corresponding columns of a full-plane GEMM.
///
/// Panics, naming both shapes, when `x`, the offsets or a present
/// modulation tensor does not match the kernel's shape.
pub fn im2col_deform_numeric_tile(
    kernel: &Im2colDeformKernel<'_>,
    x: &Tensor,
    ni: usize,
    oy0: usize,
    ox0: usize,
    th: usize,
    tw: usize,
) -> Vec<f32> {
    let s = kernel.shape;
    let (oh, ow) = s.out_hw();
    let kk = s.kernel * s.kernel;
    let (input, offsets) = ([s.n, s.c_in, s.h, s.w], [s.n, s.offset_channels(), oh, ow]);
    check_dims("input", x, &input).expect("mismatched input");
    check_dims("offsets", kernel.offsets, &offsets).expect("mismatched offsets");
    if let Some(m) = kernel.modulation {
        check_dims("modulation", m, &[s.n, s.deform_groups * kk, oh, ow])
            .expect("mismatched modulation");
    }
    let neutral = kernel.family == OpFamily::DcnV1;
    let mut cols = vec![0.0f32; s.c_in * kk * th * tw];
    for ci in 0..s.c_in {
        let g = ci / (s.c_in / s.deform_groups);
        for tap in 0..kk {
            let row = ci * kk + tap;
            for ty in 0..th {
                let oy = oy0 + ty;
                for tx in 0..tw {
                    let ox = ox0 + tx;
                    let (py, px) = sample_coord(
                        &s,
                        kernel.offsets,
                        kernel.offset_transform,
                        ni,
                        g,
                        tap,
                        (oy, ox),
                    );
                    let v = match &kernel.texture {
                        None => bilinear_sample(x, ni, ci, py, px),
                        Some(tex) => tex.fetch(x.data(), ni * s.c_in + ci, py, px).value,
                    };
                    let v = if neutral {
                        v
                    } else {
                        kernel.modulation_factor(ni, g, tap, oy, ox) * v
                    };
                    cols[row * th * tw + ty * tw + tx] = v;
                }
            }
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::{DeviceConfig, Gpu};

    fn small() -> (Tensor, Tensor, DeformLayerShape) {
        let shape = DeformLayerShape::same3x3(4, 4, 12, 12);
        let x = Tensor::randn(&[1, 4, 12, 12], 0.0, 1.0, 100);
        let offsets = Tensor::rand_uniform(&[1, 18, 12, 12], -2.0, 2.0, 101);
        (x, offsets, shape)
    }

    /// The baseline operator on `shape` with `method` sampling.
    fn with_method(shape: DeformLayerShape, method: SamplingMethod) -> DeformConvOp {
        DeformConvOp {
            method,
            ..DeformConvOp::baseline(shape)
        }
    }

    /// `op`'s sampling kernel under Xavier's texture limits.
    fn kernel<'a>(op: &'a DeformConvOp, off: &'a Tensor) -> Im2colDeformKernel<'a> {
        let limits = DeviceConfig::xavier_agx().texture_limits();
        Im2colDeformKernel::new(op, off, limits).unwrap()
    }

    /// The full-plane columns of batch item 0 (the one-tile window).
    fn columns(op: &DeformConvOp, x: &Tensor, off: &Tensor) -> Vec<f32> {
        let (oh, ow) = op.shape.out_hw();
        im2col_deform_numeric_tile(&kernel(op, off), x, 0, 0, 0, oh, ow)
    }

    #[test]
    fn grid_covers_output() {
        let (_, off, shape) = small();
        let op = DeformConvOp {
            tile: TileConfig { h: 8, w: 8 },
            ..DeformConvOp::baseline(shape)
        };
        let k = kernel(&op, &off);
        // 12x12 output with 8x8 tiles -> 2x2 tiles per channel, 4 channels.
        assert_eq!(k.grid_blocks(), 16);
        assert_eq!(k.block_threads(), 64);
    }

    #[test]
    fn numeric_software_matches_reference_columns() {
        let (x, off, shape) = small();
        let cols = columns(&DeformConvOp::baseline(shape), &x, &off);
        // Spot-check one element against the reference bilinear sampler.
        let (oh, ow) = shape.out_hw();
        let (ci, tap, oy, ox) = (2usize, 4usize, 5usize, 7usize);
        let (py, px) = sample_coord(&shape, &off, OffsetTransform::Identity, 0, 0, tap, (oy, ox));
        let expect = defcon_tensor::sample::bilinear_sample(&x, 0, ci, py, px);
        assert_eq!(cols[(ci * 9 + tap) * oh * ow + oy * ow + ox], expect);
    }

    #[test]
    fn texture_numeric_matches_software_at_full_precision() {
        let (x, off, shape) = small();
        let a = columns(
            &with_method(shape, SamplingMethod::SoftwareBilinear),
            &x,
            &off,
        );
        let b = columns(&with_method(shape, SamplingMethod::Tex2d), &x, &off);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-5, "col[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn tex2dpp_numeric_error_is_small() {
        let (x, off, shape) = small();
        let a = columns(
            &with_method(shape, SamplingMethod::SoftwareBilinear),
            &x,
            &off,
        );
        let b = columns(&with_method(shape, SamplingMethod::Tex2dPlusPlus), &x, &off);
        let max_err = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.05, "tex2D++ max error {max_err}");
        assert!(max_err > 0.0, "reduced precision should differ somewhere");
    }

    #[test]
    fn software_kernel_produces_global_loads_texture_kernel_does_not_sample_input_globally() {
        let (_, off, shape) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let sw = with_method(shape, SamplingMethod::SoftwareBilinear);
        let tx = with_method(shape, SamplingMethod::Tex2d);
        let sw_report = gpu.launch(&kernel(&sw, &off));
        let tx_report = gpu.launch(&kernel(&tx, &off));
        assert!(sw_report.counters.tex_requests == 0);
        assert!(tx_report.counters.tex_requests > 0);
        // Texture kernel still loads offsets from global memory, but far
        // fewer global loads than the software kernel's 4-per-tap.
        assert!(tx_report.counters.gld_requests < sw_report.counters.gld_requests);
        // FLOP reduction ≈ 4x on the sampling stage (paper Fig. 10).
        assert!(sw_report.counters.flops as f64 > 2.0 * tx_report.counters.flops as f64);
    }

    #[test]
    fn bounded_offsets_do_not_change_in_range_numerics() {
        let (x, off, shape) = small();
        let bounded = DeformConvOp {
            offset_transform: OffsetTransform::Bounded(7.0),
            ..DeformConvOp::baseline(shape)
        };
        // Offsets are within [-2, 2]; bounding at 7 is a no-op.
        let a = columns(&DeformConvOp::baseline(shape), &x, &off);
        let b = columns(&bounded, &x, &off);
        assert_eq!(a, b);
    }
}
