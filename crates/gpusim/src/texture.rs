//! 2-D layered textures: block-linear texel layout, border addressing and
//! hardware bilinear filtering (paper §III-B).
//!
//! A *layered* texture is a stack of same-sized 2-D textures; DEFCON maps
//! one (batch, channel) feature-map slice to each layer and lets the texture
//! unit perform the bilinear interpolation that deformable convolution
//! otherwise does in software. Out-of-bounds handling (the boundary branches
//! of the software kernel) is absorbed by border addressing: "the value of
//! out-of-bounds neighbors is taken as zero".
//!
//! That is the one texture configuration DEFCON binds, so it is the only one
//! modelled. §III-B rejects the other layered storage, mipmapped arrays,
//! because every level of the pyramid is a low-passed copy of the feature
//! map; `tests::box_filtered_level_moves_sampled_values` keeps that argument
//! as a test.
//!
//! A texture is a *view*: it borrows the row-major texels of the tensor it
//! samples — layer `n·C + c` of an NCHW tensor is exactly its `(n, c)`
//! slice — so binding one copies nothing. The block-linear layout exists
//! only in the byte addresses the texture-cache model walks.

use defcon_support::error::DefconError;

/// Texel tile geometry of the block-linear layout: 8×4 texels × 4 bytes =
/// 128 bytes = exactly one cache line, so 2-D locality maps to line reuse.
const TILE_W: usize = 8;
/// Tile height in texels.
const TILE_H: usize = 4;
/// Bytes per texel (fp32).
const TEXEL_BYTES: usize = 4;
/// Bytes per tile.
const TILE_BYTES: usize = TILE_W * TILE_H * TEXEL_BYTES;

/// A 2-D layered texture: a view of row-major fp32 layers (`layers`
/// consecutive `height × width` planes, e.g. an NCHW tensor's data) that
/// samples them with border addressing and bilinear filtering and maps
/// texels to block-linear byte addresses.
pub struct LayeredTexture2d<'a> {
    data: &'a [f32],
    layers: usize,
    height: usize,
    width: usize,
    tiles_x: usize,
    tiles_y: usize,
    /// Block-linear bytes per layer (`tiles_x · tiles_y · TILE_BYTES`),
    /// precomputed so the per-fetch address math is three adds and a
    /// multiply instead of rebuilding the stride every texel.
    layer_bytes: u64,
    /// Row-major texels per layer (`height · width`), the stride between
    /// layers in `data`.
    layer_texels: usize,
    /// Base byte address of the texture in the simulated address space.
    base_addr: u64,
    /// Binary places kept in the bilinear interpolation fraction.
    /// `23` models full fp32 filtering (`tex2D`, the default); `8` models
    /// the reduced 16-bit filter arithmetic of `tex2D++` (a half-precision
    /// weight keeps ~8 fractional bits over the `[0,1)` range). The paper
    /// stresses this is *not* quantization of the feature map — texel
    /// values stay fp32.
    pub frac_bits: u32,
}

/// One texture fetch ([`LayeredTexture2d::fetch`]): the filtered value plus
/// the byte addresses of every texel the filter read. The trace sink never
/// builds one — it replays [`FetchPlan`] addresses only.
#[derive(Clone, Debug)]
pub struct Fetch {
    /// Filtered sample.
    pub value: f32,
    /// Texel byte addresses touched (0–4 entries).
    pub addresses: [u64; 4],
    /// Number of valid entries in `addresses`.
    pub len: u8,
}

/// The layer-independent half of a texture fetch: filter weights, in-layer
/// texel indices, and layer-relative block-linear byte offsets for every
/// texel the filter will read, in contribution order.
///
/// A plan is computed once per coordinate by [`LayeredTexture2d::plan_fetch`]
/// (floor/quantize/border resolution — the expensive part) and then
/// replayed against any layer: [`LayeredTexture2d::fetch`] takes the
/// weighted sum of the layer's texels, and the trace sink adds
/// `rel_addrs` to [`LayeredTexture2d::layer_base`] for the cache walk. The
/// deformable kernels exploit this: every channel of a deform group shares
/// the same sampling coordinate, so one plan serves `C_in / G` layers.
/// `Copy + Default` so warp batches fit a fixed-capacity `LaneBuf` scratch
/// (no heap in the trace hot path).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FetchPlan {
    /// Per-texel filter weights (`wy · wx`), contribution order.
    pub weights: [f32; 4],
    /// Layer-relative block-linear byte offsets of the texels.
    pub rel_addrs: [u64; 4],
    /// In-layer row-major texel indices (`y · width + x`).
    pub indices: [u32; 4],
    /// Number of valid entries.
    pub len: u8,
}

impl std::fmt::Debug for LayeredTexture2d<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredTexture2d")
            .field("layers", &self.layers)
            .field("height", &self.height)
            .field("width", &self.width)
            .field("frac_bits", &self.frac_bits)
            .finish_non_exhaustive()
    }
}

impl<'a> LayeredTexture2d<'a> {
    /// Binds a layered texture over row-major layer data
    /// (`data.len() == layers * height * width`), borrowing it.
    /// `max_layers` / `max_dim` are the device limits of §III-B (2048 and
    /// 32768 on Xavier); a texture past them is the degradable
    /// `texture-limit` [`DefconError::Constraint`].
    pub fn new(
        data: &'a [f32],
        layers: usize,
        height: usize,
        width: usize,
        base_addr: u64,
        max_layers: usize,
        max_dim: usize,
    ) -> Result<Self, DefconError> {
        let limit = |detail: String| DefconError::Constraint {
            what: "texture-limit".into(),
            detail,
        };
        // Fault point: a texture allocation the driver rejects even though
        // the request is nominally within limits (fragmentation, transient
        // driver state). Lets tests exercise the kernel fallback chain
        // without building >2048-layer inputs.
        if defcon_support::fault::fires("texture.limit") {
            return Err(limit(format!(
                "injected fault: texture.limit ({layers} layers, {height}×{width})"
            )));
        }
        if layers > max_layers {
            return Err(limit(format!(
                "layered texture needs {layers} layers but the device supports {max_layers}; \
                 batch × channels must fit the layer limit (paper §III-B)"
            )));
        }
        if height > max_dim || width > max_dim {
            return Err(limit(format!(
                "texture extent {height}×{width} exceeds device limit {max_dim}"
            )));
        }
        assert_eq!(
            data.len(),
            layers * height * width,
            "texture data length mismatch"
        );
        let tiles_x = width.div_ceil(TILE_W);
        let tiles_y = height.div_ceil(TILE_H);
        Ok(LayeredTexture2d {
            data,
            layers,
            height,
            width,
            tiles_x,
            tiles_y,
            layer_bytes: (tiles_x * tiles_y * TILE_BYTES) as u64,
            layer_texels: height * width,
            base_addr,
            frac_bits: 23,
        })
    }

    /// Total footprint in bytes (block-linear, padded to whole tiles).
    pub fn size_bytes(&self) -> usize {
        self.layers * self.tiles_x * self.tiles_y * TILE_BYTES
    }

    /// Layer-relative block-linear byte offset of in-layer texel `(y, x)`.
    ///
    /// The full address decomposes exactly into
    /// `base + layer·layer_bytes + rel(y, x)`; splitting it this way lets
    /// [`FetchPlan`]s stay layer-independent and keeps the per-texel math to
    /// two divides/mods and two multiply-adds.
    #[inline]
    fn rel_addr(&self, y: usize, x: usize) -> u64 {
        let (ty, tx) = (y / TILE_H, x / TILE_W);
        let (iy, ix) = (y % TILE_H, x % TILE_W);
        ((ty * self.tiles_x + tx) * TILE_BYTES) as u64 + ((iy * TILE_W + ix) * TEXEL_BYTES) as u64
    }

    /// Block-linear byte address of `layer`'s first texel: a texel's
    /// address is this plus its [`FetchPlan`] `rel_addrs` entry.
    #[inline]
    pub fn layer_base(&self, layer: usize) -> u64 {
        self.base_addr + layer as u64 * self.layer_bytes
    }

    /// Block-linear byte address of texel `(layer, y, x)`.
    #[inline]
    pub fn texel_addr(&self, layer: usize, y: usize, x: usize) -> u64 {
        debug_assert!(layer < self.layers && y < self.height && x < self.width);
        self.layer_base(layer) + self.rel_addr(y, x)
    }

    /// Computes the layer-independent [`FetchPlan`] for fractional
    /// coordinates `(y, x)` (texel centers at integer coordinates).
    ///
    /// This is the expensive half of a fetch — floor, fraction
    /// quantization and border resolution — done once per *axis endpoint*
    /// (≤ 4 checks) instead of once per texel visit, with each surviving
    /// row's tile/index components computed once and reused across its
    /// columns. Texels are visited row-major over the 2×2 quad, skipping
    /// zero weights and out-of-bounds texels, so at 23 fraction bits the
    /// fetched value is bit-identical to `tensor::sample::bilinear_sample`
    /// (`tests/texture_boundary_props.rs` pins this).
    pub fn plan_fetch(&self, y: f32, x: f32) -> FetchPlan {
        let mut plan = FetchPlan::default();
        let y0 = y.floor();
        let x0 = x.floor();
        let (dy, dx) = if self.frac_bits >= 23 {
            (y - y0, x - x0)
        } else {
            let scale = (1u32 << self.frac_bits) as f32;
            let inv = 1.0 / scale; // 2^-k: exact, so `· inv ≡ / scale`
            (
                ((y - y0) * scale).round() * inv,
                ((x - x0) * scale).round() * inv,
            )
        };
        let (y0, x0) = (y0 as isize, x0 as isize);
        // Border addressing: an out-of-range texel reads as zero, so it
        // is simply left out of the plan.
        let inside = |coord: isize, extent: usize| {
            (0..extent as isize)
                .contains(&coord)
                .then_some(coord as usize)
        };
        let rows = [
            (inside(y0, self.height), 1.0 - dy),
            (inside(y0 + 1, self.height), dy),
        ];
        let cols = [
            (inside(x0, self.width), 1.0 - dx),
            (inside(x0 + 1, self.width), dx),
        ];
        for (ry, wy) in rows {
            if wy == 0.0 {
                continue;
            }
            let Some(ry) = ry else {
                continue;
            };
            let (ty, iy) = (ry / TILE_H, ry % TILE_H);
            let row_rel = (ty * self.tiles_x * TILE_BYTES + iy * TILE_W * TEXEL_BYTES) as u64;
            let row_idx = ry * self.width;
            for (rx, wx) in cols {
                if wx == 0.0 {
                    continue;
                }
                let Some(rx) = rx else {
                    continue;
                };
                let (tx, ix) = (rx / TILE_W, rx % TILE_W);
                let n = plan.len as usize;
                plan.weights[n] = wy * wx;
                plan.rel_addrs[n] = row_rel + (tx * TILE_BYTES + ix * TEXEL_BYTES) as u64;
                plan.indices[n] = (row_idx + rx) as u32;
                plan.len += 1;
            }
        }
        plan
    }

    /// Fetches the texture at fractional coordinates `(y, x)` (texel centers
    /// at integer coordinates, matching the CPU reference sampler): the
    /// coordinate's [`FetchPlan`] replayed against `layer` — the weighted
    /// sum of the planned texels, in plan order, and their addresses.
    pub fn fetch(&self, layer: usize, y: f32, x: f32) -> Fetch {
        let plan = self.plan_fetch(y, x);
        let texels = &self.data[layer * self.layer_texels..(layer + 1) * self.layer_texels];
        let layer_base = self.layer_base(layer);
        let mut fetch = Fetch {
            value: 0.0,
            addresses: [0; 4],
            len: plan.len,
        };
        for i in 0..plan.len as usize {
            fetch.value += plan.weights[i] * texels[plan.indices[i] as usize];
            fetch.addresses[i] = layer_base + plan.rel_addrs[i];
        }
        fetch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex_from(data: &[f32], h: usize, w: usize) -> LayeredTexture2d<'_> {
        LayeredTexture2d::new(data, 1, h, w, 0, 2048, 32768).unwrap()
    }

    /// A one-layer texture whose texel `(y, x)` holds `y·w + x`, over data
    /// leaked for the rest of the test.
    fn tex(h: usize, w: usize) -> LayeredTexture2d<'static> {
        let data: Vec<f32> = (0..h * w).map(|v| v as f32).collect();
        tex_from(data.leak(), h, w)
    }

    #[test]
    fn layer_limit_enforced() {
        let err = LayeredTexture2d::new(&[0.0; 3000], 3000, 1, 1, 0, 2048, 32768).unwrap_err();
        assert!(err.to_string().contains("2048"), "{err}");
    }

    #[test]
    fn dim_limit_enforced() {
        assert!(LayeredTexture2d::new(&[0.0; 40000], 1, 1, 40000, 0, 2048, 32768).is_err());
    }

    #[test]
    fn fetch_at_texel_centers_is_exact() {
        let t = tex(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                let f = t.fetch(0, y as f32, x as f32);
                assert_eq!(f.value, (y * 6 + x) as f32);
                assert_eq!(f.len, 1, "integer coordinate should touch one texel");
            }
        }
    }

    #[test]
    fn fetch_midpoint_bilinear() {
        let t = tex(2, 2);
        let f = t.fetch(0, 0.5, 0.5);
        assert!((f.value - 1.5).abs() < 1e-6); // mean of 0,1,2,3
        assert_eq!(f.len, 4);
    }

    #[test]
    fn border_mode_zeroes_outside() {
        let t = tex(3, 3);
        assert_eq!(t.fetch(0, -2.0, 0.0).value, 0.0);
        assert_eq!(t.fetch(0, -2.0, 0.0).len, 0);
        // Half-in: two texels contribute, weight 0.5.
        let f = t.fetch(0, -0.5, 0.0);
        assert!((f.value - 0.0).abs() < 1e-6); // texel (0,0)=0 → 0·0.5
        let f = t.fetch(0, -0.5, 1.0);
        assert!((f.value - 0.5).abs() < 1e-6); // texel (0,1)=1 → 1·0.5
    }

    #[test]
    fn reduced_precision_error_is_bounded() {
        // tex2D++ (8 fractional bits) must stay within one quantum of full
        // precision: |err| ≤ 2^-8 · (range of neighbours).
        let t_full = tex(16, 16);
        let mut t_red = tex(16, 16);
        t_red.frac_bits = 8;
        for i in 0..200 {
            let y = (i as f32 * 0.073) % 14.0;
            let x = (i as f32 * 0.117) % 14.0;
            let a = t_full.fetch(0, y, x).value;
            let b = t_red.fetch(0, y, x).value;
            // Neighbour values differ by ≤ 17 here (one row apart).
            assert!(
                (a - b).abs() <= 17.0 / 256.0 + 1e-5,
                "at ({y},{x}): {a} vs {b}"
            );
        }
    }

    #[test]
    fn block_linear_keeps_2d_neighbourhood_in_one_line() {
        // Texels inside one 8×4 tile share one 128-byte line.
        let t = tex(32, 32);
        let a = t.texel_addr(0, 0, 0) / 128;
        for y in 0..4 {
            for x in 0..8 {
                assert_eq!(
                    t.texel_addr(0, y, x) / 128,
                    a,
                    "texel ({y},{x}) left the tile line"
                );
            }
        }
        // A row-major layout would spread those 4 rows over 4 lines.
        assert_ne!(t.texel_addr(0, 4, 0) / 128, a);
    }

    #[test]
    fn bilinear_footprint_spans_at_most_two_lines_in_tile_interior() {
        let t = tex(64, 64);
        let f = t.fetch(0, 9.5, 9.5); // interior of a tile
        let mut lines: Vec<u64> = f.addresses[..f.len as usize]
            .iter()
            .map(|a| a / 128)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert!(lines.len() <= 2, "footprint used {} lines", lines.len());
    }

    #[test]
    fn size_bytes_padded_to_tiles() {
        let t = tex(5, 9); // tiles: 2 (y) x 2 (x) = 4 tiles = 512B
        assert_eq!(t.size_bytes(), 512);
    }

    /// Paper §III-B rejects mipmapped arrays for deformable sampling: each
    /// pyramid level is built from the one below, and any level above 0 is
    /// a low-passed copy of the feature map. Sampling the 2×2 box-filtered
    /// level 1 at the same points (coordinates halved, as a mipmap fetch at
    /// LOD 1 does) moves the sampled values by more than half a unit on an
    /// image whose texels are integers in `[0, 19)` — level 0, a plain
    /// layered texture, is the only exact choice.
    #[test]
    fn box_filtered_level_moves_sampled_values() {
        let data: Vec<f32> = (0..256).map(|i| ((i * 37) % 19) as f32).collect();
        let level1: Vec<f32> = (0..64)
            .map(|i| {
                let (y, x) = (i / 8, i % 8);
                let quad = [(0, 0), (0, 1), (1, 0), (1, 1)];
                quad.iter()
                    .map(|&(dy, dx)| data[(2 * y + dy) * 16 + 2 * x + dx])
                    .sum::<f32>()
                    / 4.0
            })
            .collect();
        let (flat, coarse) = (tex_from(&data, 16, 16), tex_from(&level1, 8, 8));
        let max_err = (0..50)
            .map(|i| {
                let y = (i as f32 * 0.29) % 14.0;
                let x = (i as f32 * 0.53) % 14.0;
                let exact = flat.fetch(0, y, x).value;
                (coarse.fetch(0, y * 0.5, x * 0.5).value - exact).abs()
            })
            .fold(0.0f32, f32::max);
        assert!(
            max_err > 0.5,
            "level 1 should visibly low-pass the features (err {max_err})"
        );
    }
}
