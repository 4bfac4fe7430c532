//! # defcon-nn
//!
//! A tape-based reverse-mode autograd engine and the neural-network modules
//! required by DEFCON's training-side experiments:
//!
//! * regular / depthwise / pointwise convolutions and batch norm with full
//!   training gradients,
//! * a trainable [`modules::DeformConv2d`] whose offsets receive gradients
//!   through the bilinear kernel (paper Eq. 2–3), and which becomes the
//!   modulated DCNv2 with the joint offset + mask predictor,
//! * the *lightweight* offset predictor (depthwise 3×3 + pointwise 1×1,
//!   paper §III-A-b),
//! * the dual-path Gumbel-Softmax layer used by the interval search
//!   (paper Eq. 5, Fig. 4c),
//! * SGD with momentum and step-decay learning rates (paper §IV-A), and
//!   the guarded, checkpointed epoch loop both training drivers run on.
//!
//! ## Design
//!
//! The engine is a dynamic tape ([`graph::Tape`]): every forward op pushes a
//! node holding its output value and a one-shot backward closure; `backward`
//! walks the tape in reverse, accumulating gradients into parents. Learnable
//! parameters live in a [`graph::ParamStore`] outside the tape and are
//! re-registered as leaves each step, so modules can be freely shared (a
//! prediction head evaluated on several FPN levels accumulates gradients
//! from every use).

pub mod graph;
pub mod gumbel;
pub mod loss;
pub mod modules;
pub mod ops;
pub mod optim;

pub use graph::{ParamId, ParamStore, Tape, Var};
pub use modules::Module;
