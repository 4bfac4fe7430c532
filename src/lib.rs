//! # defcon
//!
//! A from-scratch Rust reproduction of **DEFCON: Deformable Convolutions
//! Leveraging Interval Search and GPU Texture Hardware** (IPDPS 2024).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`tensor`] — NCHW tensors and the CPU reference kernels (including the
//!   deformable-convolution reference with full gradients);
//! * [`nn`] — the autograd tape, NN modules (trainable deformable conv,
//!   lightweight offset predictor, dual-path Gumbel-Softmax layers), SGD;
//! * [`gpusim`] — the warp-level GPU timing simulator with layered-texture
//!   hardware (Jetson AGX Xavier and RTX 2080 Ti presets);
//! * [`kernels`] — the three deformable kernels the paper compares
//!   (PyTorch-style software bilinear, `tex2D`, `tex2D++`), each with
//!   numeric and timing interpretations, plus the `Backend` trait the
//!   execution substrates plug into;
//! * [`accel`] — the tiled dataflow accelerator backend: explicit
//!   on-chip buffers, a double-buffered tile scheduler, and bounded-
//!   offset halo reuse, byte-identical to gpusim numerically;
//! * [`core`] — DEFCON proper: interval search, latency LUT, bounded
//!   deformation, Bayesian tile autotuning, the configuration pipeline,
//!   and the throughput-mode serving layer with its content-addressed
//!   report cache;
//! * [`models`] — the YOLACT-style detector, the synthetic deformed-shapes
//!   dataset, COCO-style mAP, and the full-size model zoo.
//!
//! ## Quickstart
//!
//! ```
//! use defcon::prelude::*;
//!
//! // A deformable layer from the paper's sweep, on the simulated Xavier.
//! let gpu = Gpu::new(DeviceConfig::xavier_agx());
//! let shape = DeformLayerShape::same3x3(128, 128, 69, 69);
//! let (x, offsets) = synthetic_inputs(&shape, 4.0, 7);
//!
//! let baseline = DeformConvOp::baseline(shape);
//! let defcon = DeformConvOp { method: SamplingMethod::Tex2dPlusPlus, ..baseline.clone() };
//!
//! let t_base = baseline.simulate_total(&gpu, &x, &offsets).0;
//! let t_tex = defcon.simulate_total(&gpu, &x, &offsets).0;
//! assert!(t_tex < t_base, "texture hardware should win");
//! ```

pub use defcon_accel as accel;
pub use defcon_core as core;
pub use defcon_gpusim as gpusim;
pub use defcon_kernels as kernels;
pub use defcon_models as models;
pub use defcon_nn as nn;
pub use defcon_tensor as tensor;

/// The most commonly used items in one import.
pub mod prelude {
    pub use defcon_accel::{Accel, AccelConfig};
    pub use defcon_core::autotune::Autotuner;
    pub use defcon_core::lut::{LatencyKey, LatencyLut};
    pub use defcon_core::pipeline::{DefconConfig, TileChoice};
    pub use defcon_core::search::{IntervalSearch, SearchConfig, SearchModel};
    pub use defcon_core::serve::{
        RequestPolicy, ServeConfig, ServeDevice, SimRequest, SimResponse, SimServer,
    };
    pub use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
    pub use defcon_kernels::backend::{Backend, BackendKind};
    pub use defcon_kernels::op::{
        synthetic_inputs, synthetic_modulation, DeformConvOp, OffsetPredictorKind, OpFamily,
        SamplingMethod,
    };
    pub use defcon_kernels::{paper_layer_sweep, DeformLayerShape, TileConfig};
    pub use defcon_models::backbone::{BackboneConfig, SlotKind};
    pub use defcon_models::dataset::DeformedShapesConfig;
    pub use defcon_models::trainer::TrainConfig;
    pub use defcon_models::YolactLite;
    pub use defcon_nn::graph::{ParamStore, Tape};
    pub use defcon_nn::optim::RobustConfig;
    pub use defcon_tensor::sample::OffsetTransform;
    pub use defcon_tensor::Tensor;
}
