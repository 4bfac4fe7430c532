//! The DEFCON configuration facade (paper Fig. 3): interval search →
//! lightweight operators → bounded deformation → texel-based optimization.

use crate::autotune::Autotuner;
use defcon_gpusim::Gpu;
use defcon_kernels::op::{
    synthetic_offsets, DeformConvOp, OffsetPredictorKind, OpFamily, SamplingMethod,
};
use defcon_kernels::{DeformLayerShape, TileConfig};
use defcon_tensor::sample::OffsetTransform;

/// How the sampling-stage tile is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileChoice {
    /// A fixed tile.
    Fixed(TileConfig),
    /// Offline Bayesian autotuning per layer shape (paper Fig. 8) with the
    /// given evaluation budget.
    Autotuned {
        /// Evaluation budget per layer.
        budget: usize,
    },
}

/// The full DEFCON optimization configuration — one row of paper Table III
/// is one setting of these switches.
#[derive(Clone, Copy, Debug)]
pub struct DefconConfig {
    /// Use the interval-searched layer placement (vs. hand placement).
    pub interval_search: bool,
    /// Bound learned offsets to `[-P, P]`; the paper settles on `P = 7`
    /// (Fig. 5).
    pub bounded: Option<f32>,
    /// Use the lightweight (depthwise + pointwise) offset predictor.
    pub lightweight: bool,
    /// Sampling implementation for deformable layers.
    pub method: SamplingMethod,
    /// Tile policy for the texture kernels.
    pub tile: TileChoice,
    /// Deformable operator generation for deformable layers
    /// (v1 / v2-modulated / v3-sparse).
    pub op_family: OpFamily,
}

impl DefconConfig {
    /// The YOLACT++-style baseline: hand placement, standard offset conv,
    /// software bilinear.
    pub fn baseline() -> Self {
        DefconConfig {
            interval_search: false,
            bounded: None,
            lightweight: false,
            method: SamplingMethod::SoftwareBilinear,
            tile: TileChoice::Fixed(TileConfig::default16()),
            op_family: OpFamily::DcnV1,
        }
    }

    /// Everything on — the last row of Table III.
    pub fn full() -> Self {
        DefconConfig {
            interval_search: true,
            bounded: Some(7.0),
            lightweight: true,
            method: SamplingMethod::Tex2dPlusPlus,
            tile: TileChoice::Autotuned { budget: 12 },
            op_family: OpFamily::DcnV1,
        }
    }

    /// The offset transform implied by the bounding switch.
    pub fn offset_transform(&self) -> OffsetTransform {
        match self.bounded {
            Some(p) => OffsetTransform::Bounded(p),
            None => OffsetTransform::Identity,
        }
    }

    /// The offset predictor implied by the lightweight switch.
    pub fn offset_predictor(&self) -> OffsetPredictorKind {
        if self.lightweight {
            OffsetPredictorKind::Lightweight
        } else {
            OffsetPredictorKind::Standard
        }
    }

    /// Builds the deformable operator for one layer shape, resolving the
    /// tile policy (autotuning simulates candidate tiles on `gpu`).
    ///
    /// The autotuner's exhaustive strategy honors `DEFCON_THREADS`
    /// (candidates evaluated concurrently, result order preserved); the
    /// Bayesian tuner used here is inherently sequential, but each of its
    /// objective evaluations is a simulator launch that itself follows the
    /// engine's determinism contract.
    pub fn build_op(&self, shape: DeformLayerShape, gpu: &Gpu) -> DeformConvOp {
        let op = |tile| DeformConvOp {
            shape,
            tile,
            method: self.method,
            offset_predictor: self.offset_predictor(),
            offset_transform: self.offset_transform(),
            family: self.op_family,
            modulation: None,
        };
        let tile = match self.tile {
            TileChoice::Fixed(t) => t,
            TileChoice::Autotuned { budget } => {
                let offsets =
                    synthetic_offsets(&shape, self.bounded.unwrap_or(4.0).min(4.0), 0xA07);
                let tuner = Autotuner::bayesian(budget, 0xA07);
                let space = TileConfig::search_space();
                tuner
                    .run(&space, |t| {
                        op(t)
                            .try_simulate_deform(gpu, &offsets)
                            .expect("a tile candidate's deformable stage failed")
                            .iter()
                            .map(|r| r.time_ms)
                            .sum()
                    })
                    .best
            }
        };
        op(tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::DeviceConfig;
    use defcon_kernels::op::synthetic_inputs;

    #[test]
    fn baseline_and_full_presets() {
        let b = DefconConfig::baseline();
        assert!(!b.interval_search && !b.lightweight);
        assert_eq!(b.method, SamplingMethod::SoftwareBilinear);
        let f = DefconConfig::full();
        assert!(f.interval_search && f.lightweight);
        assert_eq!(f.offset_transform(), OffsetTransform::Bounded(7.0));
        assert_eq!(f.offset_predictor(), OffsetPredictorKind::Lightweight);
    }

    #[test]
    fn autotuned_op_not_slower_than_default_tile() {
        let _quiet = defcon_support::fault::quiesce();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let shape = DeformLayerShape::same3x3(64, 64, 35, 35);
        let cfg = DefconConfig {
            tile: TileChoice::Autotuned { budget: 10 },
            method: SamplingMethod::Tex2d,
            ..DefconConfig::full()
        };
        let tuned = cfg.build_op(shape, &gpu);
        let fixed = DeformConvOp {
            tile: TileConfig::default16(),
            ..tuned.clone()
        };
        let (x, offsets) = synthetic_inputs(&shape, 4.0, 1);
        let t_tuned: f64 = tuned
            .simulate_deform(&gpu, &x, &offsets)
            .iter()
            .map(|r| r.time_ms)
            .sum();
        let t_fixed: f64 = fixed
            .simulate_deform(&gpu, &x, &offsets)
            .iter()
            .map(|r| r.time_ms)
            .sum();
        assert!(
            t_tuned <= t_fixed * 1.05,
            "tuned {t_tuned} vs fixed {t_fixed}"
        );
    }
}
