//! The execution-backend abstraction.
//!
//! DEFCON's Tables II–IV compare sampling *methods* on one execution
//! substrate — the trace-driven GPU simulator. The related accelerator
//! work (Huang et al.'s algorithm–hardware co-design, Xu et al.'s
//! energy-efficient DCN accelerator) adds a third column: a tiled
//! on-chip-buffer dataflow machine. [`Backend`] is the seam that makes
//! that column pluggable: a launch that admits and times the operator as a
//! [`KernelReport`], plus a numeric `execute` so a differential suite can
//! assert that **every** backend computes the same deformable convolution
//! bit for bit.
//!
//! `gpusim::Gpu` implements the trait here (kernels already depends on
//! gpusim); the `defcon-accel` crate provides the dataflow model.
//!
//! ## Cross-backend determinism contract
//!
//! For a fixed `(op, x, offsets, weight)`, `Backend::execute` must return
//! byte-identical tensors on every backend. The contract is achievable
//! because the numeric pipeline is shared: every backend materializes its
//! columns with `im2col_deform_numeric_tile` (gpusim's whole output plane
//! is one tile), and the GEMM epilogue's per-element reduction order is
//! blocking-invariant (see `defcon_tensor::gemm`). Timing (`launch_*`) is
//! backend-specific by design — that is the point of having backends —
//! and reads the operator and its offsets only, never an input tensor.

use defcon_gpusim::{Gpu, KernelReport};
use defcon_support::error::DefconError;
use defcon_tensor::Tensor;

use crate::op::{DeformConvOp, DeformFallback};

/// Which execution backend a request or experiment targets, addressed by
/// canonical name (`"gpusim"` / `"accel"`). The default is the GPU
/// simulator — the pre-backend behaviour — so every serialized form that
/// omits the field keeps its meaning (and its content address).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The trace-driven GPU timing simulator (`defcon-gpusim`).
    #[default]
    Gpusim,
    /// The tiled dataflow accelerator model (`defcon-accel`).
    Accel,
}

impl BackendKind {
    /// The canonical name, used in request canonical forms and report
    /// JSON.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Gpusim => "gpusim",
            BackendKind::Accel => "accel",
        }
    }
}

/// An execution backend for the deformable-convolution operator: a thing
/// that can *time* an operator configuration (producing the same
/// [`KernelReport`] currency the rest of the stack consumes — LUTs,
/// serving, goldens), and *execute* it numerically under the cross-backend
/// determinism contract described at the module level.
pub trait Backend {
    /// The canonical backend name (`"gpusim"` / `"accel"`).
    fn backend_name(&self) -> &'static str;

    /// The device/model name stamped into reports.
    fn device_name(&self) -> String;

    /// Times the deformable stage (sampling + GEMM), degrading gracefully
    /// where the backend supports it. Returns the reports of whatever
    /// configuration actually ran plus one line per degradation. The
    /// backend's admission checks run here: degradable errors
    /// ([`DefconError::is_degradable`]) mean a fallback (another rung, or
    /// another backend) may be tried.
    fn launch_deform(
        &self,
        op: &DeformConvOp,
        offsets: &Tensor,
    ) -> Result<DeformFallback, DefconError>;

    /// Times the complete operation (offset prediction + deformable
    /// stage). Returns total milliseconds and the per-launch reports.
    fn launch_total(
        &self,
        op: &DeformConvOp,
        offsets: &Tensor,
    ) -> Result<(f64, Vec<KernelReport>), DefconError>;

    /// Numeric execution of the deformable convolution proper. Subject to
    /// the cross-backend determinism contract: byte-identical across
    /// backends for identical inputs.
    fn execute(&self, op: &DeformConvOp, x: &Tensor, offsets: &Tensor, weight: &Tensor) -> Tensor;
}

impl Backend for Gpu {
    fn backend_name(&self) -> &'static str {
        BackendKind::Gpusim.name()
    }

    fn device_name(&self) -> String {
        self.config().name.clone()
    }

    fn launch_deform(
        &self,
        op: &DeformConvOp,
        offsets: &Tensor,
    ) -> Result<DeformFallback, DefconError> {
        op.simulate_deform_with_fallback(self, offsets)
    }

    fn launch_total(
        &self,
        op: &DeformConvOp,
        offsets: &Tensor,
    ) -> Result<(f64, Vec<KernelReport>), DefconError> {
        let mut reports = op.simulate_offset_conv(self);
        let fb = op.simulate_deform_with_fallback(self, offsets)?;
        reports.extend(fb.reports);
        let total = reports.iter().map(|r| r.time_ms).sum();
        Ok((total, reports))
    }

    fn execute(&self, op: &DeformConvOp, x: &Tensor, offsets: &Tensor, weight: &Tensor) -> Tensor {
        op.execute(x, offsets, weight, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::DeformLayerShape;
    use crate::op::{synthetic_offsets, SamplingMethod};
    use defcon_gpusim::DeviceConfig;

    #[test]
    fn gpu_implements_the_backend_trait() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = DeformLayerShape::same3x3(4, 4, 10, 10);
        let op = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let backend: &dyn Backend = &gpu;
        assert_eq!(backend.backend_name(), "gpusim");
        let offsets = synthetic_offsets(&shape, 2.0, 7);
        let fb = backend.launch_deform(&op, &offsets).unwrap();
        assert_eq!(fb.method, SamplingMethod::Tex2dPlusPlus);
        let (total, reports) = backend.launch_total(&op, &offsets).unwrap();
        assert!(total > 0.0 && reports.len() >= 2);
    }
}
