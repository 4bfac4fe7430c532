//! Layer shapes and thread-block tile configurations.

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
    /// padded input, and `c_in` split evenly across the deformable groups
    /// (an uneven split indexes past the last group's offsets). Violations
    /// are [`DefconError::InvalidShape`].
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
        Ok(())
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
    fn tile_space_is_bounded() {
        let space = TileConfig::search_space();
        assert!(!space.is_empty());
        for t in &space {
            assert!((32..=1024).contains(&t.threads()), "{t}");
        }
        assert!(space.contains(&TileConfig::default16()));
    }
}
