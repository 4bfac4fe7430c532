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
use crate::op::OpFamily;
use defcon_gpusim::texture::LayeredTexture2d;
use defcon_gpusim::trace::{BlockTrace, LaneBuf, TraceSink};
use defcon_tensor::sample::{tap_softmax, OffsetTransform};
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

/// How the sampling stage reads the input feature map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// Software bilinear from global memory (PyTorch baseline).
    Software,
    /// Hardware-filtered fetches from a layered texture; `frac_bits`
    /// controls the filter precision (23 = `tex2D`, 8 = `tex2D++`).
    Texture {
        /// Interpolation-fraction bits.
        frac_bits: u32,
    },
}

/// The deformable im2col kernel: grid = `N × C_in × output tiles`, one
/// thread per output position in the tile, each thread materializing all
/// `k²` taps of its position for its channel.
pub struct Im2colDeformKernel<'a> {
    /// Layer shape.
    pub shape: DeformLayerShape,
    /// Thread-block tile over the output plane.
    pub tile: TileConfig,
    /// Input feature map `[N, C_in, H, W]`.
    pub x: &'a Tensor,
    /// Offsets `[N, 2·G·k², outH, outW]` (already transformed if bounding /
    /// rounding applies — see `offset_transform`).
    pub offsets: &'a Tensor,
    /// Transform applied to raw offsets when computing sample coordinates.
    pub offset_transform: OffsetTransform,
    /// Sampling implementation.
    pub sampling: Sampling,
    /// The layered texture holding `x` (required iff `sampling` is
    /// `Texture`).
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
    /// Builds the kernel for `family`, constructing the layered texture
    /// when needed. `max_layers` / `max_dim` are the device texture limits;
    /// `modulation` is the optional borrowed mask (v2) or logits (v3).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shape: DeformLayerShape,
        tile: TileConfig,
        x: &'a Tensor,
        offsets: &'a Tensor,
        offset_transform: OffsetTransform,
        sampling: Sampling,
        max_layers: usize,
        max_dim: usize,
        family: OpFamily,
        modulation: Option<&'a Tensor>,
    ) -> Result<Self, defcon_gpusim::texture::TextureLimitError> {
        let texture = match sampling {
            Sampling::Software => None,
            Sampling::Texture { frac_bits } => {
                let (n, c, h, w) = x.shape().nchw();
                let mut t = LayeredTexture2d::new(
                    x.data().to_vec(),
                    n * c,
                    h,
                    w,
                    address_map::TEXTURE,
                    max_layers,
                    max_dim,
                )?;
                t.filter_mode = defcon_gpusim::texture::FilterMode::Linear { frac_bits };
                t.address_mode = defcon_gpusim::texture::AddressMode::Border;
                Some(t)
            }
        };
        Ok(Im2colDeformKernel {
            shape,
            tile,
            x,
            offsets,
            offset_transform,
            sampling,
            texture,
            family,
            modulation,
        })
    }

    fn tiles_xy(&self) -> (usize, usize) {
        let (oh, ow) = self.shape.out_hw();
        (oh.div_ceil(self.tile.h), ow.div_ceil(self.tile.w))
    }

    #[inline]
    fn input_addr(&self, ni: usize, ci: usize, y: usize, x: usize) -> u64 {
        let s = self.shape;
        address_map::INPUT + 4 * (((ni * s.c_in + ci) * s.h + y) * s.w + x) as u64
    }

    #[inline]
    fn offset_addr(&self, ni: usize, ch: usize, oy: usize, ox: usize) -> u64 {
        let (oh, ow) = self.shape.out_hw();
        let oc = self.shape.offset_channels();
        address_map::OFFSETS + 4 * (((ni * oc + ch) * oh + oy) * ow + ox) as u64
    }

    #[inline]
    fn col_addr(&self, ni: usize, row: usize, col: usize) -> u64 {
        let (oh, ow) = self.shape.out_hw();
        let rows = self.shape.c_in * self.shape.kernel * self.shape.kernel;
        address_map::COLUMNS + 4 * ((ni * rows + row) * oh * ow + col) as u64
    }

    #[inline]
    fn modulation_addr(&self, ni: usize, ch: usize, oy: usize, ox: usize) -> u64 {
        let (oh, ow) = self.shape.out_hw();
        let mc = self.shape.deform_groups * self.shape.kernel * self.shape.kernel;
        address_map::MODULATION + 4 * (((ni * mc + ch) * oh + oy) * ow + ox) as u64
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

    /// The sampling coordinate of `tap` at output `(oy, ox)` for deformable
    /// group `g`: `p = p_o + p_i + Δp_i` with the offset transform applied.
    fn sample_coord(&self, ni: usize, g: usize, tap: usize, oy: usize, ox: usize) -> (f32, f32) {
        let s = self.shape;
        let kk = s.kernel * s.kernel;
        let (ki, kj) = (tap / s.kernel, tap % s.kernel);
        let ch = 2 * (g * kk + tap);
        let dy = self
            .offset_transform
            .apply(self.offsets.at4(ni, ch, oy, ox));
        let dx = self
            .offset_transform
            .apply(self.offsets.at4(ni, ch + 1, oy, ox));
        let py = (oy * s.stride + ki) as f32 - s.pad as f32 + dy;
        let px = (ox * s.stride + kj) as f32 - s.pad as f32 + dx;
        (py, px)
    }
}

impl BlockTrace for Im2colDeformKernel<'_> {
    fn grid_blocks(&self) -> usize {
        let (ty, tx) = self.tiles_xy();
        self.shape.n * self.shape.c_in * ty * tx
    }

    fn block_threads(&self) -> usize {
        self.tile.threads()
    }

    fn label(&self) -> String {
        let base = match self.sampling {
            Sampling::Software => "deform_im2col_sw",
            Sampling::Texture { frac_bits } if frac_bits <= 10 => "deform_im2col_tex2dpp",
            Sampling::Texture { .. } => "deform_im2col_tex2d",
        };
        format!("{base}{}", self.family.label_suffix())
    }

    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let (ty_count, tx_count) = self.tiles_xy();
        let blocks_per_channel = ty_count * tx_count;
        let ci = (block / blocks_per_channel) % s.c_in;
        let ni = block / (s.c_in * blocks_per_channel);
        let t = block % blocks_per_channel;
        let (tile_y, tile_x) = (t / tx_count, t % tx_count);
        let g = ci / (s.c_in / s.deform_groups);
        let kk = s.kernel * s.kernel;

        // Threads cover the tile row-major; lanes of one warp are
        // consecutive threads (so consecutive output columns, wrapping at
        // tile width — the standard CUDA mapping). All warp-level event
        // staging goes through fixed-capacity `LaneBuf`s / sink iterators:
        // this loop performs no heap allocation (see `tests/zero_alloc.rs`).
        let threads = self.tile.threads();
        let mut lanes: LaneBuf<(usize, usize)> = LaneBuf::new();
        for warp_start in (0..threads).step_by(32) {
            // Gather the warp's valid output positions.
            lanes.fill_from(
                (warp_start..(warp_start + 32).min(threads)).filter_map(|tid| {
                    let oy = tile_y * self.tile.h + tid / self.tile.w;
                    let ox = tile_x * self.tile.w + tid % self.tile.w;
                    (oy < oh && ox < ow).then_some((oy, ox))
                }),
            );
            if lanes.is_empty() {
                continue;
            }
            let nl = lanes.len() as u64;

            for tap in 0..kk {
                let ch = 2 * (g * kk + tap);
                // Two warp loads for (Δy, Δx) — coalesced along ox.
                sink.global_load_into(
                    lanes
                        .iter()
                        .map(|&(oy, ox)| self.offset_addr(ni, ch, oy, ox)),
                );
                sink.global_load_into(
                    lanes
                        .iter()
                        .map(|&(oy, ox)| self.offset_addr(ni, ch + 1, oy, ox)),
                );
                // Address arithmetic for the sampling position.
                sink.alu(4 * nl);
                sink.flop(4 * nl); // p = p_o + p_i + Δp (fp adds, x and y)

                // Family-specific modulation traffic and arithmetic. Gated
                // on the family (not on `modulation` being present) so a
                // served request without a tensor still traces honestly;
                // `DcnV1` emits nothing and stays byte-identical to the
                // pre-family kernel.
                match self.family {
                    OpFamily::DcnV1 => {}
                    OpFamily::DcnV2 => {
                        // One coalesced mask load per (group, tap) and the
                        // per-lane modulation multiply.
                        sink.global_load_into(
                            lanes
                                .iter()
                                .map(|&(oy, ox)| self.modulation_addr(ni, g * kk + tap, oy, ox)),
                        );
                        sink.flop(nl);
                    }
                    OpFamily::DcnV3 => {
                        // Logit load plus the tap's share of the grouped
                        // softmax: exp, normalizing accumulate, weighted
                        // multiply (≈3 flops/lane) and the max-subtract
                        // bookkeeping.
                        sink.global_load_into(
                            lanes
                                .iter()
                                .map(|&(oy, ox)| self.modulation_addr(ni, g * kk + tap, oy, ox)),
                        );
                        sink.flop(3 * nl);
                        sink.alu(nl);
                    }
                }

                match self.sampling {
                    Sampling::Software => {
                        // 4 neighbour loads; out-of-bounds neighbours are
                        // branched around (no load, but branch ALU cost).
                        let mut neigh: [LaneBuf<u64>; 4] = [LaneBuf::new(); 4];
                        for &(oy, ox) in lanes.iter() {
                            let (py, px) = self.sample_coord(ni, g, tap, oy, ox);
                            let (y0, x0) = (py.floor() as isize, px.floor() as isize);
                            for (slot, (qy, qx)) in
                                [(y0, x0), (y0, x0 + 1), (y0 + 1, x0), (y0 + 1, x0 + 1)]
                                    .iter()
                                    .enumerate()
                            {
                                if *qy >= 0 && *qy < s.h as isize && *qx >= 0 && *qx < s.w as isize
                                {
                                    neigh[slot].push(self.input_addr(
                                        ni,
                                        ci,
                                        *qy as usize,
                                        *qx as usize,
                                    ));
                                }
                            }
                        }
                        for addrs in &neigh {
                            sink.global_load(addrs);
                        }
                        // Software bilinear: weight computation (2 sub, 2
                        // one-minus) + 4 mul + 3 add ≈ 8 flops, plus the
                        // boundary branches (≈6 int ops).
                        sink.flop(8 * nl);
                        sink.alu(6 * nl);
                    }
                    Sampling::Texture { .. } => {
                        let tex = self
                            .texture
                            .as_ref()
                            .expect("texture sampling without texture");
                        let layer = ni * s.c_in + ci;
                        sink.tex_fetch_warp_into(
                            tex,
                            layer,
                            lanes
                                .iter()
                                .map(|&(oy, ox)| self.sample_coord(ni, g, tap, oy, ox)),
                        );
                    }
                }

                // One coalesced column store per tap.
                let row = ci * kk + tap;
                sink.global_store_into(
                    lanes
                        .iter()
                        .map(|&(oy, ox)| self.col_addr(ni, row, oy * ow + ox)),
                );
            }
        }
    }
}

/// Numeric companion of [`Im2colDeformKernel`]: materializes the column
/// matrix `[C_in·k², outH·outW]` for batch item `ni`, using exactly the same
/// sampling semantics as the trace (including texture filter precision).
///
/// For v2/v3 each column value is pre-multiplied by the tap's modulation
/// factor (mask / grouped-softmax weight), so the GEMM epilogue is family
/// agnostic. A v2 all-ones mask multiplies by exactly `1.0` and therefore
/// reproduces the v1 columns byte-for-byte.
pub fn im2col_deform_numeric(kernel: &Im2colDeformKernel<'_>, ni: usize) -> Vec<f32> {
    let s = kernel.shape;
    let (oh, ow) = s.out_hw();
    let kk = s.kernel * s.kernel;
    let neutral = kernel.family == OpFamily::DcnV1;
    let mut cols = vec![0.0f32; s.c_in * kk * oh * ow];
    for ci in 0..s.c_in {
        let g = ci / (s.c_in / s.deform_groups);
        for tap in 0..kk {
            let row = ci * kk + tap;
            for oy in 0..oh {
                for ox in 0..ow {
                    let (py, px) = kernel.sample_coord(ni, g, tap, oy, ox);
                    let v = match (&kernel.sampling, &kernel.texture) {
                        (Sampling::Software, _) => {
                            defcon_tensor::sample::bilinear_sample(kernel.x, ni, ci, py, px)
                        }
                        (Sampling::Texture { .. }, Some(tex)) => {
                            tex.fetch(ni * s.c_in + ci, py, px).value
                        }
                        _ => unreachable!("texture sampling without texture"),
                    };
                    let v = if neutral {
                        v
                    } else {
                        kernel.modulation_factor(ni, g, tap, oy, ox) * v
                    };
                    cols[row * oh * ow + oy * ow + ox] = v;
                }
            }
        }
    }
    cols
}

/// Tiled form of [`im2col_deform_numeric`]: materializes only the columns
/// of the output window `[oy0, oy0+th) × [ox0, ox0+tw)` for batch item
/// `ni`, as a `[C_in·k², th·tw]` row-major matrix (window-local column
/// index `ty·tw + tx`).
///
/// Every element is computed by **exactly** the per-element pipeline of
/// the full-plane function — same `sample_coord`, same sampler, same
/// modulation factor, same v1 neutral-skip — so a GEMM over a tile's
/// columns produces byte-identical output values to the corresponding
/// columns of a full-plane GEMM (the blocked GEMM's per-element reduction
/// order is independent of which columns are present; see
/// `defcon_tensor::gemm`). This is the accel backend's tile kernel.
pub fn im2col_deform_numeric_tile(
    kernel: &Im2colDeformKernel<'_>,
    ni: usize,
    oy0: usize,
    ox0: usize,
    th: usize,
    tw: usize,
) -> Vec<f32> {
    let s = kernel.shape;
    let kk = s.kernel * s.kernel;
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
                    let (py, px) = kernel.sample_coord(ni, g, tap, oy, ox);
                    let v = match (&kernel.sampling, &kernel.texture) {
                        (Sampling::Software, _) => {
                            defcon_tensor::sample::bilinear_sample(kernel.x, ni, ci, py, px)
                        }
                        (Sampling::Texture { .. }, Some(tex)) => {
                            tex.fetch(ni * s.c_in + ci, py, px).value
                        }
                        _ => unreachable!("texture sampling without texture"),
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

    fn small_kernel(sampling: Sampling) -> (Tensor, Tensor, DeformLayerShape) {
        let shape = DeformLayerShape::same3x3(4, 4, 12, 12);
        let x = Tensor::randn(&[1, 4, 12, 12], 0.0, 1.0, 100);
        let offsets = Tensor::rand_uniform(&[1, 18, 12, 12], -2.0, 2.0, 101);
        let _ = sampling;
        (x, offsets, shape)
    }

    /// The DCNv1 kernel under Xavier's texture limits.
    fn v1<'a>(
        shape: DeformLayerShape,
        tile: TileConfig,
        x: &'a Tensor,
        off: &'a Tensor,
        transform: OffsetTransform,
        sampling: Sampling,
    ) -> Im2colDeformKernel<'a> {
        Im2colDeformKernel::new(
            shape,
            tile,
            x,
            off,
            transform,
            sampling,
            2048,
            32768,
            OpFamily::DcnV1,
            None,
        )
        .unwrap()
    }

    #[test]
    fn grid_covers_output() {
        let (x, off, shape) = small_kernel(Sampling::Software);
        let k = v1(
            shape,
            TileConfig { h: 8, w: 8 },
            &x,
            &off,
            OffsetTransform::Identity,
            Sampling::Software,
        );
        // 12x12 output with 8x8 tiles -> 2x2 tiles per channel, 4 channels.
        assert_eq!(k.grid_blocks(), 16);
        assert_eq!(k.block_threads(), 64);
    }

    #[test]
    fn numeric_software_matches_reference_columns() {
        let (x, off, shape) = small_kernel(Sampling::Software);
        let k = v1(
            shape,
            TileConfig::default16(),
            &x,
            &off,
            OffsetTransform::Identity,
            Sampling::Software,
        );
        let cols = im2col_deform_numeric(&k, 0);
        // Spot-check one element against the reference bilinear sampler.
        let (oh, ow) = shape.out_hw();
        let (ci, tap, oy, ox) = (2usize, 4usize, 5usize, 7usize);
        let (py, px) = k.sample_coord(0, 0, tap, oy, ox);
        let expect = defcon_tensor::sample::bilinear_sample(&x, 0, ci, py, px);
        assert_eq!(cols[(ci * 9 + tap) * oh * ow + oy * ow + ox], expect);
    }

    #[test]
    fn texture_numeric_matches_software_at_full_precision() {
        let (x, off, shape) = small_kernel(Sampling::Software);
        let mk = |sampling| {
            v1(
                shape,
                TileConfig::default16(),
                &x,
                &off,
                OffsetTransform::Identity,
                sampling,
            )
        };
        let sw = mk(Sampling::Software);
        let tx = mk(Sampling::Texture { frac_bits: 23 });
        let a = im2col_deform_numeric(&sw, 0);
        let b = im2col_deform_numeric(&tx, 0);
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-5, "col[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn tex2dpp_numeric_error_is_small() {
        let (x, off, shape) = small_kernel(Sampling::Software);
        let mk = |sampling| {
            v1(
                shape,
                TileConfig::default16(),
                &x,
                &off,
                OffsetTransform::Identity,
                sampling,
            )
        };
        let sw = mk(Sampling::Software);
        let pp = mk(Sampling::Texture { frac_bits: 8 });
        let a = im2col_deform_numeric(&sw, 0);
        let b = im2col_deform_numeric(&pp, 0);
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
        let (x, off, shape) = small_kernel(Sampling::Software);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let mk = |sampling| {
            v1(
                shape,
                TileConfig::default16(),
                &x,
                &off,
                OffsetTransform::Identity,
                sampling,
            )
        };
        let sw_report = gpu.launch(&mk(Sampling::Software));
        let tx_report = gpu.launch(&mk(Sampling::Texture { frac_bits: 23 }));
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
        let (x, off, shape) = small_kernel(Sampling::Software);
        let mk = |tr| {
            v1(
                shape,
                TileConfig::default16(),
                &x,
                &off,
                tr,
                Sampling::Software,
            )
        };
        // Offsets are within [-2, 2]; bounding at 7 is a no-op.
        let a = im2col_deform_numeric(&mk(OffsetTransform::Identity), 0);
        let b = im2col_deform_numeric(&mk(OffsetTransform::Bounded(7.0)), 0);
        assert_eq!(a, b);
    }
}
