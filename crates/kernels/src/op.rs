//! The complete deformable operation: offset prediction → deformable
//! sampling (im2col) → GEMM, composable in every configuration the paper
//! evaluates, with numeric execution and simulator timing.
//!
//! Every kernel this operator launches — the im2col sampling stage, the
//! fused texture kernel, the GEMM epilogue, and both offset-predictor
//! convolutions (regular and depthwise+pointwise) — stages its warp events
//! through the sink's fixed-capacity scratch (`global_load_into` /
//! `tex_fetch_warp_into`), so a simulated block allocates nothing on the
//! heap. `tests/zero_alloc.rs` pins that contract for each family.

use crate::fused::FusedTexDeformKernel;
use crate::gemm_kernel::{DepthwiseConvKernel, GemmKernel, RegularConvKernel};
use crate::im2col::{check_dims, im2col_deform_numeric_tile, Im2colDeformKernel};
use crate::layer::{DeformLayerShape, TileConfig};
use defcon_gpusim::{Gpu, KernelReport};
use defcon_support::error::DefconError;
use defcon_support::json::Json;
use defcon_support::obs;
use defcon_tensor::sample::OffsetTransform;
use defcon_tensor::{gemm, Tensor};

/// The three sampling implementations of the paper's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingMethod {
    /// PyTorch-style software bilinear interpolation from global memory.
    SoftwareBilinear,
    /// Layered-texture hardware bilinear (`tex2D`).
    Tex2d,
    /// Layered-texture hardware bilinear with reduced-precision filter
    /// arithmetic (`tex2D++`).
    Tex2dPlusPlus,
}

impl SamplingMethod {
    /// Binary places the texture filter keeps in its interpolation
    /// fractions — 23 (full fp32) for `tex2D`, 8 (the reduced 16-bit filter
    /// arithmetic) for `tex2D++` — and `None` for software sampling, which
    /// binds no texture.
    pub fn frac_bits(&self) -> Option<u32> {
        match self {
            SamplingMethod::SoftwareBilinear => None,
            SamplingMethod::Tex2d => Some(23),
            SamplingMethod::Tex2dPlusPlus => Some(8),
        }
    }

    /// Stem of the kernel labels this method launches under
    /// (`deform_im2col_sw`, `deform_fused_tex2dpp`, `accel_deform_tex2d`…).
    pub fn label_stem(&self) -> &'static str {
        match self {
            SamplingMethod::SoftwareBilinear => "sw",
            SamplingMethod::Tex2d => "tex2d",
            SamplingMethod::Tex2dPlusPlus => "tex2dpp",
        }
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingMethod::SoftwareBilinear => "PyTorch",
            SamplingMethod::Tex2d => "tex2D",
            SamplingMethod::Tex2dPlusPlus => "tex2D++",
        }
    }

    /// One rung down the fallback ladder (`tex2D++` → `tex2D` → software);
    /// `None` once at the software floor. This is the order
    /// [`DeformConvOp::simulate_deform_with_fallback`] walks on degradable
    /// failures, reused by `core::serve` as its overload degradation.
    pub fn degrade(&self) -> Option<SamplingMethod> {
        match self {
            SamplingMethod::Tex2dPlusPlus => Some(SamplingMethod::Tex2d),
            SamplingMethod::Tex2d => Some(SamplingMethod::SoftwareBilinear),
            SamplingMethod::SoftwareBilinear => None,
        }
    }

    /// Every method, fallback-ladder-ordered (fastest first).
    pub fn ladder() -> [SamplingMethod; 3] {
        [
            SamplingMethod::Tex2dPlusPlus,
            SamplingMethod::Tex2d,
            SamplingMethod::SoftwareBilinear,
        ]
    }
}

/// The deformable-convolution operator family (the generation axis,
/// orthogonal to [`SamplingMethod`]).
///
/// * `DcnV1` — offsets only (the paper's operator).
/// * `DcnV2` — offsets plus a per-tap **sigmoid modulation mask**; the
///   kernel consumes the post-sigmoid mask (torchvision semantics), so an
///   all-ones mask reduces v2 to v1 byte-for-byte.
/// * `DcnV3` — offsets plus grouped **softmax-normalized** aggregation
///   weights; the kernel consumes raw logits and normalizes over the `k²`
///   taps of each deformable group internally. Constant logits reduce v3
///   to a uniform `1/k²` tap average.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpFamily {
    /// Offsets only.
    DcnV1,
    /// Offsets + sigmoid modulation mask (modulated DCN).
    DcnV2,
    /// Offsets + grouped softmax aggregation (sparse DCN).
    DcnV3,
}

impl OpFamily {
    /// Display name used in result tables and the serving canonical form.
    pub fn name(&self) -> &'static str {
        match self {
            OpFamily::DcnV1 => "DCNv1",
            OpFamily::DcnV2 => "DCNv2",
            OpFamily::DcnV3 => "DCNv3",
        }
    }

    /// Suffix appended to kernel labels (`""` for v1 so every legacy
    /// golden trace and report name stays byte-identical).
    pub fn label_suffix(&self) -> &'static str {
        match self {
            OpFamily::DcnV1 => "",
            OpFamily::DcnV2 => "_dcnv2",
            OpFamily::DcnV3 => "_dcnv3",
        }
    }

    /// Every family, generation-ordered.
    pub fn all() -> [OpFamily; 3] {
        [OpFamily::DcnV1, OpFamily::DcnV2, OpFamily::DcnV3]
    }

    /// Extra predictor output channels this family needs on top of the
    /// `2·G·k²` offset channels: `G·k²` mask (v2) or logit (v3) channels,
    /// zero for v1 (the Snippet-1 `conv_offset_mask` recipe: one joint
    /// conv emitting `3·G·k²` channels for v2/v3).
    pub fn modulation_channels(&self, shape: &DeformLayerShape) -> usize {
        match self {
            OpFamily::DcnV1 => 0,
            OpFamily::DcnV2 | OpFamily::DcnV3 => shape.deform_groups * shape.kernel * shape.kernel,
        }
    }
}

/// Which offset-predicting convolution precedes the deformable kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OffsetPredictorKind {
    /// Regular `k×k` convolution producing `2·G·k²` channels (the original
    /// DCN design).
    Standard,
    /// DEFCON's lightweight depthwise-3×3 + pointwise-1×1 pair (§III-A-b).
    Lightweight,
}

/// A fully-configured deformable convolution operator.
#[derive(Clone, Debug)]
pub struct DeformConvOp {
    /// Layer shape.
    pub shape: DeformLayerShape,
    /// Thread-block tile for the sampling stage (the Fig. 8 knob).
    pub tile: TileConfig,
    /// Sampling implementation.
    pub method: SamplingMethod,
    /// Offset predictor flavour.
    pub offset_predictor: OffsetPredictorKind,
    /// Offset post-processing (bounding / rounding).
    pub offset_transform: OffsetTransform,
    /// Operator generation (v1 / v2-modulated / v3-sparse).
    pub family: OpFamily,
    /// Modulation tensor `[N, G·k², outH, outW]`: the post-sigmoid mask
    /// for v2, raw aggregation logits for v3, ignored for v1. `None`
    /// means the family's neutral element (all-ones mask / constant
    /// logits) — the trace never reads these values, only the numeric
    /// path does, so serving can simulate any family without a tensor.
    pub modulation: Option<Tensor>,
}

impl DeformConvOp {
    /// A baseline operator: standard offset conv, software bilinear,
    /// 16×16 tiles, unbounded offsets, DCNv1.
    pub fn baseline(shape: DeformLayerShape) -> Self {
        DeformConvOp {
            shape,
            tile: TileConfig::default16(),
            method: SamplingMethod::SoftwareBilinear,
            offset_predictor: OffsetPredictorKind::Standard,
            offset_transform: OffsetTransform::Identity,
            family: OpFamily::DcnV1,
            modulation: None,
        }
    }

    /// Numeric execution of the deformable convolution proper (offsets are
    /// given, not predicted): column materialization with this operator's
    /// sampling semantics, then GEMM against `weight`.
    ///
    /// For `SoftwareBilinear` and `Tex2d` this is exactly
    /// `deform_conv2d_ref`; for `Tex2dPlusPlus` it reflects the reduced
    /// filter precision.
    ///
    /// Panics, naming both shapes, when `x`, `offsets` or a present
    /// modulation tensor does not match the operator's shape.
    pub fn execute(&self, x: &Tensor, offsets: &Tensor, weight: &Tensor, gpu: &Gpu) -> Tensor {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let kernel = Im2colDeformKernel::new(self, offsets, gpu.config().texture_limits())
            .expect("texture limits exceeded");
        let krows = s.c_in * s.kernel * s.kernel;
        let cols_n = oh * ow;
        let mut out = Tensor::zeros(&[s.n, s.c_out, oh, ow]);
        for ni in 0..s.n {
            // The full plane is the one-tile window.
            let cols = im2col_deform_numeric_tile(&kernel, x, ni, 0, 0, oh, ow);
            let dst = &mut out.data_mut()[ni * s.c_out * cols_n..(ni + 1) * s.c_out * cols_n];
            gemm::gemm(weight.data(), &cols, dst, s.c_out, krows, cols_n);
        }
        out
    }

    /// [`DeformConvOp::try_simulate_deform`] for callers that hold the
    /// input too: `x` must be this operator's `[N, C_in, H, W]` input, and
    /// nothing else of it is read. Panics, naming both shapes, on any other
    /// `x`, and on any error `try_simulate_deform` returns.
    pub fn simulate_deform(&self, gpu: &Gpu, x: &Tensor, offsets: &Tensor) -> Vec<KernelReport> {
        self.expect_input(x);
        self.try_simulate_deform(gpu, offsets)
            .expect("deformable stage failed (try_simulate_deform has the typed error)")
    }

    /// Simulates the deformable stage on `gpu` at `offsets`, returning one
    /// report per kernel launch; the timing depends on where the offsets
    /// place the taps, never on input values.
    ///
    /// The software baseline runs as PyTorch ships it — an im2col sampling
    /// kernel followed by a GEMM over the materialized column matrix. The
    /// texture variants run DEFCON's **fused** kernel (sampling feeds the
    /// convolution accumulators directly; no column buffer).
    ///
    /// Failures are typed: [`DefconError::InvalidShape`] for a malformed
    /// layer ([`DeformLayerShape::validate`], checked before anything is
    /// built) or for `offsets` that are not `[N, 2·G·k², outH, outW]`, a
    /// degradable [`DefconError::Constraint`] when the texture setup
    /// exceeds the device's limits, and whatever [`Gpu::try_launch`]
    /// returns.
    ///
    /// When `N × C_in` exceeds the device's layered-texture limit, the
    /// texture methods partition the batch (paper §III-B): each partition
    /// is uploaded and launched separately, which "results in the overhead
    /// associated with multiple invocations of the GPU kernel". A batch
    /// that fits is one partition. A single image whose channels alone
    /// exceed the limit cannot be split and is a texture-limit constraint.
    pub fn try_simulate_deform(
        &self,
        gpu: &Gpu,
        offsets: &Tensor,
    ) -> Result<Vec<KernelReport>, DefconError> {
        self.shape.validate()?;
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        check_dims("offsets", offsets, &[s.n, s.offset_channels(), oh, ow])?;
        let max_layers = gpu.config().max_texture_layers;
        if self.method == SamplingMethod::SoftwareBilinear || s.n * s.c_in <= max_layers {
            return self.launch_partition(gpu, offsets);
        }
        if s.c_in > max_layers {
            return Err(DefconError::Constraint {
                what: "texture-limit".into(),
                detail: format!(
                    "a single image's channels ({}) exceed the texture layer limit ({max_layers})",
                    s.c_in
                ),
            });
        }
        let per_chunk = max_layers / s.c_in;
        let o_stride = s.offset_channels() * oh * ow;
        let mut reports = Vec::new();
        let mut n0 = 0usize;
        while n0 < s.n {
            let n_here = per_chunk.min(s.n - n0);
            // The trace reads no input or modulation: slice the offsets.
            let o_chunk = Tensor::from_vec(
                offsets.data()[n0 * o_stride..(n0 + n_here) * o_stride].to_vec(),
                &[n_here, s.offset_channels(), oh, ow],
            );
            let op = DeformConvOp {
                shape: DeformLayerShape { n: n_here, ..s },
                modulation: None,
                ..*self
            };
            reports.extend(op.launch_partition(gpu, &o_chunk)?);
            n0 += n_here;
        }
        Ok(reports)
    }

    /// Panics, naming both shapes, unless `x` is this operator's
    /// `[N, C_in, H, W]` input.
    fn expect_input(&self, x: &Tensor) {
        let s = self.shape;
        check_dims("input", x, &[s.n, s.c_in, s.h, s.w])
            .expect("x must be the operator's [N, C_in, H, W] input");
    }

    /// Builds and launches the deformable stage for one batch partition.
    fn launch_partition(
        &self,
        gpu: &Gpu,
        offsets: &Tensor,
    ) -> Result<Vec<KernelReport>, DefconError> {
        let cfg = gpu.config();
        match self.method {
            SamplingMethod::SoftwareBilinear => {
                let im2col = Im2colDeformKernel::new(self, offsets, cfg.texture_limits())?;
                let gemm_stage = GemmKernel::for_conv(&self.shape);
                Ok(vec![gpu.try_launch(&im2col)?, gpu.try_launch(&gemm_stage)?])
            }
            SamplingMethod::Tex2d | SamplingMethod::Tex2dPlusPlus => {
                let fused = FusedTexDeformKernel::new(self, offsets, cfg)?;
                Ok(vec![gpu.try_launch(&fused)?])
            }
        }
    }

    /// Simulates the deformable stage with graceful degradation along the
    /// paper's method ladder, walking [`SamplingMethod::degrade`] down
    /// from the requested method (`tex2D++ → tex2D → software`). A rung
    /// that fails with a degradable error — its texture setup exceeds the
    /// layer/dimension limits, or an injected `texture.limit` fault fires —
    /// is recorded in `degradations` and the next rung is tried; any other
    /// error (a malformed shape, a tripped deadline) ends the walk. The
    /// software rung reads global memory and cannot hit texture limits, so
    /// a texture-capable op always completes — at reduced fidelity to the
    /// requested configuration.
    pub fn simulate_deform_with_fallback(
        &self,
        gpu: &Gpu,
        offsets: &Tensor,
    ) -> Result<DeformFallback, DefconError> {
        let ladder_span = obs::span_with("kernels.fallback_ladder", || {
            let rungs = std::iter::successors(Some(self.method), SamplingMethod::degrade).count();
            vec![
                ("requested", Json::str(self.method.name())),
                ("rungs", Json::from(rungs)),
            ]
        });
        let mut degradations = Vec::new();
        let mut method = self.method;
        loop {
            let op = DeformConvOp {
                method,
                ..self.clone()
            };
            match op.try_simulate_deform(gpu, offsets) {
                Ok(reports) => {
                    ladder_span.record("selected", Json::str(method.name()));
                    ladder_span.record("degradations", Json::from(degradations.len()));
                    return Ok(DeformFallback {
                        reports,
                        method,
                        degradations,
                    });
                }
                Err(e) if e.is_degradable() => {
                    obs::event_with("kernels.fallback", || {
                        vec![
                            ("from", Json::str(method.name())),
                            ("error", Json::str(e.to_string())),
                        ]
                    });
                    degradations.push(format!("{} unavailable: {e}", method.name()));
                    match method.degrade() {
                        Some(next) => method = next,
                        None => {
                            ladder_span.record("selected", Json::str("none"));
                            return Err(e);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Simulates the offset-predicting convolution on `gpu`.
    ///
    /// For v2/v3 the predictor is the joint `conv_offset_mask` design:
    /// one convolution emitting `2·G·k²` offset channels **plus** `G·k²`
    /// mask/logit channels (`3·G·k²` total), so the family's predictor
    /// cost is honestly wider than v1's.
    pub fn simulate_offset_conv(&self, gpu: &Gpu) -> Vec<KernelReport> {
        let s = self.shape;
        let pred_channels = s.offset_channels() + self.family.modulation_channels(&s);
        match self.offset_predictor {
            OffsetPredictorKind::Standard => {
                let shape = DeformLayerShape {
                    c_out: pred_channels,
                    ..s
                };
                vec![gpu.launch(&RegularConvKernel::new(shape, "offset_conv"))]
            }
            OffsetPredictorKind::Lightweight => {
                // Depthwise 3×3 keeps channels; pointwise 1×1 projects to
                // 2Gk² channels (plus Gk² modulation channels for v2/v3).
                let dw_shape = DeformLayerShape { c_out: s.c_in, ..s };
                let (oh, ow) = s.out_hw();
                let pw = GemmKernel {
                    m: pred_channels,
                    k: s.c_in,
                    n: oh * ow,
                    batch: s.n,
                    a_base: crate::im2col::address_map::WEIGHTS,
                    b_base: crate::im2col::address_map::INPUT,
                    c_base: crate::im2col::address_map::OFFSETS,
                    name: "offset_pointwise".into(),
                };
                vec![
                    gpu.launch(&DepthwiseConvKernel { shape: dw_shape }),
                    gpu.launch(&pw),
                ]
            }
        }
    }

    /// Simulates the complete deformable operation (offset prediction +
    /// sampling + GEMM). Returns total milliseconds and per-kernel reports.
    /// `x` is only checked, as in [`DeformConvOp::simulate_deform`].
    pub fn simulate_total(
        &self,
        gpu: &Gpu,
        x: &Tensor,
        offsets: &Tensor,
    ) -> (f64, Vec<KernelReport>) {
        let mut reports = self.simulate_offset_conv(gpu);
        reports.extend(self.simulate_deform(gpu, x, offsets));
        let total = reports.iter().map(|r| r.time_ms).sum();
        (total, reports)
    }
}

/// Result of [`DeformConvOp::simulate_deform_with_fallback`]: the reports
/// of the rung that ran, which rung it was, and why earlier rungs were
/// skipped (empty when the requested method ran as configured).
#[derive(Clone, Debug)]
pub struct DeformFallback {
    /// Per-launch reports from the method that succeeded.
    pub reports: Vec<KernelReport>,
    /// The sampling method that actually ran.
    pub method: SamplingMethod,
    /// One line per skipped rung, in ladder order.
    pub degradations: Vec<String>,
}

/// Simulated latency of a plain (rigid) convolution at `shape`, timed as
/// an implicit GEMM — the same matrix engine the deformable op's epilogue
/// uses, so "replace this conv with a DCN" comparisons are apples to
/// apples.
pub fn simulate_regular_conv_ms(gpu: &Gpu, shape: &DeformLayerShape) -> f64 {
    gpu.launch(&GemmKernel::for_conv(shape)).time_ms
}

/// Deterministic synthetic inputs for numeric experiments: an activation
/// tensor and the [`synthetic_offsets`] of the same seed.
pub fn synthetic_inputs(shape: &DeformLayerShape, spread: f32, seed: u64) -> (Tensor, Tensor) {
    let x = Tensor::randn(&[shape.n, shape.c_in, shape.h, shape.w], 0.0, 1.0, seed);
    (x, synthetic_offsets(shape, spread, seed))
}

/// Deterministic synthetic offsets for latency experiments — all a timing
/// route reads: an `[N, 2·G·k², outH, outW]` field with components in
/// `[-spread, spread]`. (Trained DCN offsets concentrate within a few
/// pixels; `spread` models how diffuse the learned deformation is, which
/// is what offset bounding changes at the memory-system level.)
pub fn synthetic_offsets(shape: &DeformLayerShape, spread: f32, seed: u64) -> Tensor {
    let (oh, ow) = shape.out_hw();
    let dims = [shape.n, shape.offset_channels(), oh, ow];
    Tensor::rand_uniform(&dims, -spread, spread, seed ^ 0x5eed)
}

/// Deterministic synthetic modulation tensor for `family` at `shape`:
/// `None` for v1; a `[N, G·k², outH, outW]` mask in `(0, 1)` (as if
/// post-sigmoid) for v2; raw logits in `[-2, 2]` for v3. Same seeding
/// discipline as [`synthetic_inputs`].
pub fn synthetic_modulation(
    shape: &DeformLayerShape,
    family: OpFamily,
    seed: u64,
) -> Option<Tensor> {
    let (oh, ow) = shape.out_hw();
    let dims = [
        shape.n,
        shape.deform_groups * shape.kernel * shape.kernel,
        oh,
        ow,
    ];
    match family {
        OpFamily::DcnV1 => None,
        OpFamily::DcnV2 => Some(Tensor::rand_uniform(&dims, 0.05, 0.95, seed ^ 0x3a5c)),
        OpFamily::DcnV3 => Some(Tensor::rand_uniform(&dims, -2.0, 2.0, seed ^ 0x3a5c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::DeviceConfig;
    use defcon_tensor::sample::deform_conv2d_ref;

    fn small() -> (DeformLayerShape, Tensor, Tensor, Tensor) {
        let shape = DeformLayerShape::same3x3(4, 6, 10, 10);
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 42);
        let w = Tensor::randn(&[6, 4, 3, 3], 0.0, 0.3, 43);
        (shape, x, offsets, w)
    }

    #[test]
    fn software_execute_matches_reference() {
        let (shape, x, offsets, w) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp::baseline(shape);
        let got = op.execute(&x, &offsets, &w, &gpu);
        let expect = deform_conv2d_ref(
            &x,
            &offsets,
            &w,
            None,
            &shape.deform_params(),
            OffsetTransform::Identity,
        );
        defcon_tensor::assert_close(&got, &expect, 1e-3, 1e-3);
    }

    #[test]
    fn tex2d_execute_matches_reference() {
        let (shape, x, offsets, w) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp {
            method: SamplingMethod::Tex2d,
            ..DeformConvOp::baseline(shape)
        };
        let got = op.execute(&x, &offsets, &w, &gpu);
        let expect = deform_conv2d_ref(
            &x,
            &offsets,
            &w,
            None,
            &shape.deform_params(),
            OffsetTransform::Identity,
        );
        defcon_tensor::assert_close(&got, &expect, 1e-3, 1e-3);
    }

    #[test]
    fn tex2dpp_execute_close_to_reference() {
        let (shape, x, offsets, w) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let got = op.execute(&x, &offsets, &w, &gpu);
        let expect = deform_conv2d_ref(
            &x,
            &offsets,
            &w,
            None,
            &shape.deform_params(),
            OffsetTransform::Identity,
        );
        // Reduced filter precision: small relative error, never wild.
        defcon_tensor::assert_close(&got, &expect, 0.05, 0.02);
    }

    #[test]
    fn texture_methods_beat_software_on_xavier() {
        // One of the paper's Table II rows (texture wins grow with channel
        // count; tiny layers are launch-overhead bound either way).
        let shape = DeformLayerShape::same3x3(128, 128, 69, 69);
        let (x, offsets) = synthetic_inputs(&shape, 4.0, 7);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let time = |method| {
            let op = DeformConvOp {
                method,
                ..DeformConvOp::baseline(shape)
            };
            op.simulate_total(&gpu, &x, &offsets).0
        };
        let sw = time(SamplingMethod::SoftwareBilinear);
        let t2 = time(SamplingMethod::Tex2d);
        let tpp = time(SamplingMethod::Tex2dPlusPlus);
        assert!(t2 < sw, "tex2D {t2} !< PyTorch {sw}");
        assert!(tpp <= t2, "tex2D++ {tpp} !<= tex2D {t2}");
    }

    #[test]
    fn lightweight_offset_conv_is_faster() {
        let shape = DeformLayerShape::same3x3(128, 128, 35, 35);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let t = |kind| {
            let op = DeformConvOp {
                offset_predictor: kind,
                ..DeformConvOp::baseline(shape)
            };
            op.simulate_offset_conv(&gpu)
                .iter()
                .map(|r| r.time_ms)
                .sum::<f64>()
        };
        let std = t(OffsetPredictorKind::Standard);
        let lw = t(OffsetPredictorKind::Lightweight);
        assert!(lw < std, "lightweight {lw} !< standard {std}");
    }

    #[test]
    fn simulate_total_composes_kernels() {
        let (shape, x, offsets, _) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp::baseline(shape);
        let (total, reports) = op.simulate_total(&gpu, &x, &offsets);
        assert_eq!(reports.len(), 3); // offset conv + im2col + gemm (software baseline)
        assert!((total - reports.iter().map(|r| r.time_ms).sum::<f64>()).abs() < 1e-12);
    }

    /// An offset field of any other shape is one typed error before any
    /// kernel is built — smaller would index past it, larger would be read
    /// at the wrong positions — and the ladder returns it unchanged.
    #[test]
    fn mismatched_offsets_are_a_typed_shape_error() {
        let (shape, _, offsets, _) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        for dims in [[1, 18, 10, 9], [1, 18, 11, 10], [2, 18, 10, 10]] {
            let wrong = Tensor::zeros(&dims);
            let err = op.try_simulate_deform(&gpu, &wrong).unwrap_err();
            let detail = format!("expected [1, 18, 10, 10], got {dims:?}");
            assert_eq!(
                err,
                DefconError::InvalidShape {
                    what: "offsets".into(),
                    detail
                }
            );
            assert_eq!(
                op.simulate_deform_with_fallback(&gpu, &wrong).unwrap_err(),
                err
            );
        }
        assert!(op.try_simulate_deform(&gpu, &offsets).is_ok());
    }

    #[test]
    #[should_panic(expected = "expected [1, 4, 10, 10], got [1, 4, 10, 9]")]
    fn simulate_deform_rejects_a_mismatched_input() {
        let (shape, _, offsets, _) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let x = Tensor::zeros(&[1, 4, 10, 9]);
        DeformConvOp::baseline(shape).simulate_deform(&gpu, &x, &offsets);
    }

    #[test]
    #[should_panic(expected = "expected [1, 4, 10, 10], got [4, 10, 10]")]
    fn simulate_total_rejects_a_mismatched_input() {
        let (shape, _, offsets, _) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let x = Tensor::zeros(&[4, 10, 10]);
        DeformConvOp::baseline(shape).simulate_total(&gpu, &x, &offsets);
    }

    #[test]
    #[should_panic(expected = "expected [1, 4, 10, 10], got [1, 4, 12, 12]")]
    fn execute_rejects_a_mismatched_input() {
        let (shape, _, offsets, w) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp {
            method: SamplingMethod::Tex2d,
            ..DeformConvOp::baseline(shape)
        };
        op.execute(&Tensor::zeros(&[1, 4, 12, 12]), &offsets, &w, &gpu);
    }

    #[test]
    #[should_panic(expected = "expected [1, 18, 10, 10], got [1, 18, 8, 8]")]
    fn execute_rejects_mismatched_offsets() {
        let (shape, x, _, w) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let offsets = Tensor::zeros(&[1, 18, 8, 8]);
        DeformConvOp::baseline(shape).execute(&x, &offsets, &w, &gpu);
    }

    #[test]
    #[should_panic(expected = "expected [1, 9, 10, 10], got [1, 9, 10, 11]")]
    fn execute_rejects_a_mismatched_modulation() {
        let (shape, x, offsets, w) = small();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let op = DeformConvOp {
            family: OpFamily::DcnV2,
            modulation: Some(Tensor::full(&[1, 9, 10, 11], 0.5)),
            ..DeformConvOp::baseline(shape)
        };
        op.execute(&x, &offsets, &w, &gpu);
    }

    #[test]
    fn synthetic_inputs_respect_spread() {
        let shape = DeformLayerShape::same3x3(2, 2, 8, 8);
        let (_, off) = synthetic_inputs(&shape, 3.0, 1);
        assert!(off.data().iter().all(|v| v.abs() <= 3.0));
        assert!(off.data().iter().any(|v| v.abs() > 2.0));
    }

    #[test]
    fn degrade_walks_the_ladder_to_the_software_floor() {
        let mut rungs = vec![SamplingMethod::Tex2dPlusPlus];
        while let Some(next) = rungs[rungs.len() - 1].degrade() {
            rungs.push(next);
        }
        assert_eq!(rungs, SamplingMethod::ladder().to_vec());
        assert_eq!(SamplingMethod::SoftwareBilinear.degrade(), None);
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use defcon_gpusim::DeviceConfig;

    #[test]
    fn oversized_batch_partitions_and_pays_launches() {
        // 8 images × 512 channels = 4096 layers > 2048 → two partitions.
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = DeformLayerShape {
            n: 8,
            ..DeformLayerShape::same3x3(512, 16, 6, 6)
        };
        let (x, off) = synthetic_inputs(&shape, 2.0, 2);
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let reports = op.simulate_deform(&gpu, &x, &off);
        assert_eq!(reports.len(), 2, "expected two texture partitions");
        // Each partition carries its own launch overhead — the cost the
        // paper predicts for partitioned training batches.
        let total: f64 = reports.iter().map(|r| r.time_ms).sum();
        let single_overhead = gpu.config().launch_overhead_us * 1e-3;
        assert!(total > 2.0 * single_overhead);
    }

    /// A shape with `n × c_in` texture layers and a tiny spatial extent.
    fn layered_shape(n: usize, c_in: usize) -> DeformLayerShape {
        DeformLayerShape {
            n,
            ..DeformLayerShape::same3x3(c_in, 4, 4, 4)
        }
    }

    #[test]
    fn layer_limit_boundary_is_exact() {
        // Xavier's layered-texture limit is 2048. One layer under, at, and
        // over the limit must partition into exactly 1, 1, and 2 launches.
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let max = gpu.config().max_texture_layers;
        assert_eq!(max, 2048, "boundary cases assume the Xavier limit");
        let launches = |n: usize, c_in: usize| {
            let shape = layered_shape(n, c_in);
            let off = synthetic_offsets(&shape, 2.0, 9);
            let op = DeformConvOp {
                method: SamplingMethod::Tex2d,
                ..DeformConvOp::baseline(shape)
            };
            op.try_simulate_deform(&gpu, &off).unwrap().len()
        };
        assert_eq!(launches(1, 2047), 1, "under the limit: single launch");
        assert_eq!(launches(1, 2048), 1, "exactly at the limit: single launch");
        // 3 × 683 = 2049: per-chunk capacity is ⌊2048/683⌋ = 2 images.
        assert_eq!(launches(3, 683), 2, "one over the limit: two launches");
    }

    #[test]
    fn unpartitionable_channels_are_a_typed_constraint() {
        // 2100 channels in a single image cannot be split across launches:
        // the old assert is now a degradable Constraint error.
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = layered_shape(2, 2100);
        let off = synthetic_offsets(&shape, 2.0, 10);
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let err = op.try_simulate_deform(&gpu, &off).unwrap_err();
        assert!(matches!(err, DefconError::Constraint { .. }), "{err}");
        assert!(err.is_degradable());
    }

    #[test]
    fn fallback_ladder_lands_on_software_when_textures_cannot_hold_the_layer() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = layered_shape(1, 2100);
        let off = synthetic_offsets(&shape, 2.0, 11);
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let fb = op.simulate_deform_with_fallback(&gpu, &off).unwrap();
        assert_eq!(fb.method, SamplingMethod::SoftwareBilinear);
        assert_eq!(fb.degradations.len(), 2, "{:?}", fb.degradations);
        assert!(fb.degradations[0].starts_with("tex2D++ unavailable"));
        assert!(fb.degradations[1].starts_with("tex2D unavailable"));
        assert_eq!(fb.reports.len(), 2, "software im2col + GEMM");
    }

    #[test]
    fn fallback_is_a_no_op_when_the_requested_method_fits() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = layered_shape(2, 16);
        let (x, off) = synthetic_inputs(&shape, 2.0, 12);
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let fb = op.simulate_deform_with_fallback(&gpu, &off).unwrap();
        assert_eq!(fb.method, SamplingMethod::Tex2dPlusPlus);
        assert!(fb.degradations.is_empty());
        let direct = op.simulate_deform(&gpu, &x, &off);
        assert_eq!(fb.reports.len(), direct.len());
        assert_eq!(fb.reports[0].time_ms, direct[0].time_ms);
    }

    #[test]
    fn malformed_shapes_are_one_typed_error_even_through_the_ladder() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let base = DeformLayerShape::same3x3(4, 4, 8, 8);
        // Never checked: the shape is validated before the offsets.
        let off = Tensor::zeros(&[1]);
        for (shape, detail) in [
            (
                DeformLayerShape { c_out: 0, ..base },
                "c_out must be positive",
            ),
            (
                DeformLayerShape { stride: 0, ..base },
                "stride must be positive",
            ),
            (DeformLayerShape { kernel: 11, ..base }, "kernel 11 exceeds"),
            (
                DeformLayerShape {
                    deform_groups: 3,
                    ..base
                },
                "not divisible",
            ),
        ] {
            let op = DeformConvOp {
                method: SamplingMethod::Tex2dPlusPlus,
                ..DeformConvOp::baseline(shape)
            };
            let direct = op.try_simulate_deform(&gpu, &off).unwrap_err();
            assert!(
                matches!(&direct, DefconError::InvalidShape { detail: d, .. } if d.contains(detail)),
                "{direct}"
            );
            // Not degradable: the ladder returns the one error, skipping
            // no rungs.
            let laddered = op.simulate_deform_with_fallback(&gpu, &off);
            assert_eq!(laddered.unwrap_err(), direct);
        }
    }

    #[test]
    fn software_path_never_partitions() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = DeformLayerShape {
            n: 8,
            ..DeformLayerShape::same3x3(512, 16, 6, 6)
        };
        let (x, off) = synthetic_inputs(&shape, 2.0, 3);
        let op = DeformConvOp::baseline(shape);
        // Software bilinear reads global memory; the texture limit is
        // irrelevant (2 launches = im2col + GEMM, not partitions).
        let reports = op.simulate_deform(&gpu, &x, &off);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().any(|r| r.kernel == "deform_im2col_sw"));
    }
}
