//! Layer shapes and thread-block tile configurations.

use crate::im2col::address_map;
use defcon_support::error::DefconError;
use defcon_tensor::conv::Conv2dParams;
use defcon_tensor::sample::DeformConv2dParams;

/// The shape of one deformable (or regular) convolution layer, the unit the
/// paper's layer-wise tables sweep over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeformLayerShape {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub pad: usize,
    /// Deformable groups.
    pub deform_groups: usize,
}

impl DeformLayerShape {
    /// A stride-1, same-padded 3×3 deformable layer (the paper's sweep
    /// rows).
    pub fn same3x3(c_in: usize, c_out: usize, h: usize, w: usize) -> Self {
        DeformLayerShape {
            n: 1,
            c_in,
            c_out,
            h,
            w,
            kernel: 3,
            stride: 1,
            pad: 1,
            deform_groups: 1,
        }
    }

    /// Checks that the shape is a convolution the kernels can run: every
    /// dimension and the stride positive, the kernel no larger than the
    /// padded input, `c_in` split evenly across the deformable groups (an
    /// uneven split indexes past the last group's offsets), and every
    /// buffer the operator's kernels address inside its `address_map`
    /// region (a longer one would alias the next region in the modelled
    /// caches, and its `usize` index math can wrap). Violations are
    /// [`DefconError::InvalidShape`].
    pub fn validate(&self) -> Result<(), DefconError> {
        let invalid = |detail: String| {
            Err(DefconError::InvalidShape {
                what: "deformable layer".into(),
                detail,
            })
        };
        for (name, v) in [
            ("n", self.n),
            ("c_in", self.c_in),
            ("c_out", self.c_out),
            ("h", self.h),
            ("w", self.w),
            ("kernel", self.kernel),
            ("stride", self.stride),
            ("deform_groups", self.deform_groups),
        ] {
            if v == 0 {
                return invalid(format!("{name} must be positive"));
            }
        }
        let padded = |side: usize| side.saturating_add(self.pad.saturating_mul(2));
        if self.kernel > padded(self.h).min(padded(self.w)) {
            return invalid(format!(
                "kernel {} exceeds the padded {}x{} input",
                self.kernel,
                padded(self.h),
                padded(self.w)
            ));
        }
        if !self.c_in.is_multiple_of(self.deform_groups) {
            return invalid(format!(
                "c_in {} is not divisible by deform_groups {}",
                self.c_in, self.deform_groups
            ));
        }
        let Some(buffers) = self.buffer_bytes() else {
            return invalid("a buffer's byte extent overflows".into());
        };
        for (name, bytes) in buffers {
            if bytes > REGION_BYTES {
                return invalid(format!(
                    "the {name} buffer's {bytes} bytes overrun its {REGION_BYTES}-byte address region"
                ));
            }
        }
        Ok(())
    }

    /// Bytes of each buffer the operator's kernels address, by
    /// `address_map` region, or `None` when one overflows. Channel counts
    /// take the widest operator: the v2/v3 predictor's `3·G·k²` outputs
    /// (in the offsets region from the pointwise stage, in the output
    /// region from a regular conv), and the lightweight predictor's
    /// `C_in`-channel depthwise result (written to the output region, read
    /// back from the input region).
    fn buffer_bytes(&self) -> Option<[(&'static str, u64); 6]> {
        let dim = |v: usize| v as u64;
        let bytes = |dims: &[u64]| dims.iter().try_fold(4u64, |acc, &d| acc.checked_mul(d));
        let out = |side: usize| {
            let padded = self.pad.checked_mul(2)?.checked_add(side)?;
            Some(dim((padded - self.kernel) / self.stride + 1))
        };
        let plane = out(self.h)?.checked_mul(out(self.w)?)?;
        let taps = dim(self.kernel).checked_mul(dim(self.kernel))?;
        let modulation = dim(self.deform_groups).checked_mul(taps)?;
        let predictor = modulation.checked_mul(3)?;
        let (n, c_in, c_out) = (dim(self.n), dim(self.c_in), dim(self.c_out));
        let input = plane.max(dim(self.h).checked_mul(dim(self.w))?);
        Some([
            ("input", bytes(&[n, c_in, input])?),
            ("offsets", bytes(&[n, predictor, plane])?),
            ("columns", bytes(&[n, c_in, taps, plane])?),
            ("weights", bytes(&[c_out.max(predictor), c_in, taps])?),
            (
                "output",
                bytes(&[n, c_out.max(c_in).max(predictor), plane])?,
            ),
            ("modulation", bytes(&[n, modulation, plane])?),
        ])
    }

    /// The convolution window as `Conv2dParams`.
    pub fn conv_params(&self) -> Conv2dParams {
        Conv2dParams {
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
            dilation: 1,
        }
    }

    /// The deformable parameters (window + groups).
    pub fn deform_params(&self) -> DeformConv2dParams {
        DeformConv2dParams {
            conv: self.conv_params(),
            deform_groups: self.deform_groups,
        }
    }

    /// Output spatial extent.
    pub fn out_hw(&self) -> (usize, usize) {
        self.conv_params().out_hw(self.h, self.w)
    }

    /// Offset-tensor channel count `2·G·k²`.
    pub fn offset_channels(&self) -> usize {
        2 * self.deform_groups * self.kernel * self.kernel
    }

    /// MACs of the main (deformable) convolution.
    pub fn conv_macs(&self) -> u64 {
        let (oh, ow) = self.out_hw();
        (self.n * self.c_out * self.c_in * self.kernel * self.kernel * oh * ow) as u64
    }
}

/// The spacing of the `address_map` regions each buffer starts at.
const REGION_BYTES: u64 = address_map::OFFSETS - address_map::INPUT;

/// The six layer shapes of the paper's layer-wise speedup tables
/// (Table II on Xavier, Table IV on the 2080 Ti, Fig. 7/9/10).
pub fn paper_layer_sweep() -> Vec<DeformLayerShape> {
    vec![
        DeformLayerShape::same3x3(128, 128, 138, 138),
        DeformLayerShape::same3x3(128, 128, 69, 69),
        DeformLayerShape::same3x3(256, 256, 69, 69),
        DeformLayerShape::same3x3(256, 256, 35, 35),
        DeformLayerShape::same3x3(512, 512, 35, 35),
        DeformLayerShape::same3x3(512, 512, 18, 18),
    ]
}

/// Thread-block tile over the output plane for the sampling (im2col) stage —
/// the GPU-specific parameter the paper autotunes (Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Tile height in output rows.
    pub h: usize,
    /// Tile width in output columns.
    pub w: usize,
}

impl TileConfig {
    /// The default CUDA-ish 16×16 tile.
    pub fn default16() -> Self {
        TileConfig { h: 16, w: 16 }
    }

    /// Threads per block (one per tile element).
    pub fn threads(&self) -> usize {
        self.h * self.w
    }

    /// The tile search space explored by the autotuner: every (h, w) with
    /// 32 ≤ threads ≤ 1024, powers of two from 2 to 64 per side.
    pub fn search_space() -> Vec<TileConfig> {
        let sides = [2usize, 4, 8, 16, 32, 64];
        let mut out = Vec::new();
        for &h in &sides {
            for &w in &sides {
                let t = h * w;
                if (32..=1024).contains(&t) {
                    out.push(TileConfig { h, w });
                }
            }
        }
        out
    }
}

impl std::fmt::Display for TileConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper_rows() {
        let s = paper_layer_sweep();
        assert_eq!(s.len(), 6);
        assert_eq!((s[0].c_in, s[0].h), (128, 138));
        assert_eq!((s[5].c_out, s[5].w), (512, 18));
        for l in &s {
            let (oh, ow) = l.out_hw();
            assert_eq!((oh, ow), (l.h, l.w), "stride-1 same conv preserves extent");
        }
    }

    #[test]
    fn offset_channels_18_for_3x3() {
        assert_eq!(paper_layer_sweep()[0].offset_channels(), 18);
    }

    #[test]
    fn macs_scale_with_channels() {
        let a = DeformLayerShape::same3x3(128, 128, 69, 69);
        let b = DeformLayerShape::same3x3(256, 256, 69, 69);
        assert_eq!(b.conv_macs(), 4 * a.conv_macs());
    }

    #[test]
    fn buffers_must_fit_their_address_regions() {
        // A 1×1 kernel over 4 channels: the input, column and output
        // buffers are 4·4·H·W bytes, exactly one region at 4096².
        let fits = DeformLayerShape {
            kernel: 1,
            pad: 0,
            ..DeformLayerShape::same3x3(4, 4, 4096, 4096)
        };
        assert_eq!(fits.validate(), Ok(()));
        let over = DeformLayerShape { w: 4097, ..fits };
        let err = over.validate().unwrap_err().to_string();
        assert!(
            err.contains("the input buffer's 268500992 bytes overrun its 268435456-byte"),
            "{err}"
        );
        // Extents past u64 are one typed error, whichever factor overflows.
        for hostile in [
            DeformLayerShape {
                n: usize::MAX,
                ..fits
            },
            DeformLayerShape {
                pad: usize::MAX / 2,
                ..fits
            },
        ] {
            let err = hostile.validate().unwrap_err().to_string();
            assert!(err.contains("byte extent overflows"), "{err}");
        }
    }

    #[test]
    fn tile_space_is_bounded() {
        let space = TileConfig::search_space();
        assert!(!space.is_empty());
        for t in &space {
            assert!((32..=1024).contains(&t.threads()), "{t}");
        }
        assert!(space.contains(&TileConfig::default16()));
    }
}
