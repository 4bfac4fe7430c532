//! Reusable network modules.
//!
//! Modules own [`ParamId`]s into a shared [`ParamStore`] plus any
//! non-learnable state (batch-norm running statistics). They are built once
//! and then applied to a fresh [`Tape`] every step, which makes weight
//! sharing (e.g. a YOLACT prediction head evaluated on several FPN levels)
//! work out of the box.

use crate::graph::{ParamId, ParamStore, Tape, Var};
use crate::gumbel;
use crate::ops;
use defcon_support::rng::{SeedableRng, StdRng};
use defcon_tensor::conv::Conv2dParams;
use defcon_tensor::init;
use defcon_tensor::sample::{DeformConv2dParams, OffsetTransform};
use defcon_tensor::Tensor;

/// Anything that maps one activation Var to another on a tape.
pub trait Module {
    /// Records the module's computation on the tape.
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var;
}

/// Deterministic per-module seed derivation so that adding a module never
/// perturbs the initialization of its siblings.
fn derive_seed(base: u64, salt: &str) -> u64 {
    let mut h = 1469598103934665603u64; // FNV-1a
    for b in salt.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(1099511628211);
    }
    h ^ base
}

// ---------------------------------------------------------------------------
// Convolution modules
// ---------------------------------------------------------------------------

/// Plain 2-D convolution with optional bias.
pub struct Conv2d {
    /// Filter parameter `[C_out, C_in, k, k]`.
    pub weight: ParamId,
    /// Optional bias `[C_out]`.
    pub bias: Option<ParamId>,
    /// Window hyper-parameters.
    pub params: Conv2dParams,
}

impl Conv2d {
    /// Kaiming-initialized convolution.
    pub fn new(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: Conv2dParams,
        bias: bool,
        seed: u64,
    ) -> Self {
        let w = init::kaiming_conv(&[c_out, c_in, p.kernel, p.kernel], derive_seed(seed, name));
        let weight = s.add(&format!("{name}.weight"), w, true);
        let bias = bias.then(|| s.add(&format!("{name}.bias"), Tensor::zeros(&[c_out]), false));
        Conv2d {
            weight,
            bias,
            params: p,
        }
    }

    /// Zero-initialized convolution — used for offset predictors so training
    /// starts from the rigid sampling grid.
    pub fn new_zeroed(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: Conv2dParams,
        bias: bool,
    ) -> Self {
        let weight = s.add(
            &format!("{name}.weight"),
            Tensor::zeros(&[c_out, c_in, p.kernel, p.kernel]),
            false,
        );
        let bias = bias.then(|| s.add(&format!("{name}.bias"), Tensor::zeros(&[c_out]), false));
        Conv2d {
            weight,
            bias,
            params: p,
        }
    }
}

impl Module for Conv2d {
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let w = t.param(s, self.weight);
        let b = self.bias.map(|bb| t.param(s, bb));
        ops::conv2d_op(t, x, w, b, self.params)
    }
}

/// Depthwise convolution module (`[C, 1, k, k]` weights).
pub struct DwConv2d {
    /// Filter parameter.
    pub weight: ParamId,
    /// Optional bias.
    pub bias: Option<ParamId>,
    /// Window hyper-parameters.
    pub params: Conv2dParams,
}

impl DwConv2d {
    /// Kaiming-initialized depthwise convolution.
    pub fn new(
        s: &mut ParamStore,
        name: &str,
        c: usize,
        p: Conv2dParams,
        bias: bool,
        seed: u64,
    ) -> Self {
        let w = init::kaiming_conv(&[c, 1, p.kernel, p.kernel], derive_seed(seed, name));
        let weight = s.add(&format!("{name}.weight"), w, true);
        let bias = bias.then(|| s.add(&format!("{name}.bias"), Tensor::zeros(&[c]), false));
        DwConv2d {
            weight,
            bias,
            params: p,
        }
    }
}

impl Module for DwConv2d {
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let w = t.param(s, self.weight);
        let b = self.bias.map(|bb| t.param(s, bb));
        ops::depthwise_conv2d_op(t, x, w, b, self.params)
    }
}

/// Batch normalization with running statistics and a train/eval switch.
pub struct BatchNorm2d {
    /// Scale parameter γ.
    pub gamma: ParamId,
    /// Shift parameter β.
    pub beta: ParamId,
    /// Running mean (inference statistics).
    pub running_mean: Vec<f32>,
    /// Running variance.
    pub running_var: Vec<f32>,
    /// EMA momentum.
    pub momentum: f32,
    /// Variance epsilon.
    pub eps: f32,
    /// Training (batch stats) vs. inference (running stats) mode.
    pub training: bool,
}

impl BatchNorm2d {
    /// γ=1, β=0, running stats (0, 1).
    pub fn new(s: &mut ParamStore, name: &str, c: usize) -> Self {
        BatchNorm2d {
            gamma: s.add(&format!("{name}.gamma"), Tensor::ones(&[c]), false),
            beta: s.add(&format!("{name}.beta"), Tensor::zeros(&[c]), false),
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            momentum: 0.1,
            eps: 1e-5,
            training: true,
        }
    }
}

impl Module for BatchNorm2d {
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let g = t.param(s, self.gamma);
        let b = t.param(s, self.beta);
        if self.training {
            ops::batch_norm2d_op(
                t,
                x,
                g,
                b,
                &mut self.running_mean,
                &mut self.running_var,
                self.momentum,
                self.eps,
            )
        } else {
            // Inference: affine transform with frozen statistics (still
            // differentiable w.r.t. γ/β, though that rarely matters here).
            let xv = t.value(x).clone();
            let y = defcon_tensor::norm::batch_norm2d_infer(
                &xv,
                s.value(self.gamma),
                s.value(self.beta),
                &self.running_mean,
                &self.running_var,
                self.eps,
            );
            let rm = self.running_mean.clone();
            let rv = self.running_var.clone();
            let eps = self.eps;
            let gv = s.value(self.gamma).clone();
            t.push(
                y,
                vec![x, g, b],
                Some(Box::new(move |gy| {
                    let (n, c, h, w) = gy.shape().nchw();
                    let mut gx = Tensor::zeros(gy.dims());
                    let mut gg = Tensor::zeros(&[c]);
                    let mut gb = Tensor::zeros(&[c]);
                    for ni in 0..n {
                        for ci in 0..c {
                            let is = 1.0 / (rv[ci] + eps).sqrt();
                            for hh in 0..h {
                                for ww in 0..w {
                                    let gyv = gy.at4(ni, ci, hh, ww);
                                    *gx.at4_mut(ni, ci, hh, ww) = gyv * gv.data()[ci] * is;
                                    gg.data_mut()[ci] +=
                                        gyv * (xv.at4(ni, ci, hh, ww) - rm[ci]) * is;
                                    gb.data_mut()[ci] += gyv;
                                }
                            }
                        }
                    }
                    vec![gx, gg, gb]
                })),
            )
        }
    }
}

/// Conv → BatchNorm → ReLU, the workhorse block of every backbone.
pub struct ConvBnRelu {
    /// The convolution.
    pub conv: Conv2d,
    /// The normalization.
    pub bn: BatchNorm2d,
    /// Skip the ReLU when this block feeds a residual add.
    pub relu: bool,
}

impl ConvBnRelu {
    /// Standard block constructor.
    pub fn new(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: Conv2dParams,
        relu: bool,
        seed: u64,
    ) -> Self {
        ConvBnRelu {
            conv: Conv2d::new(s, &format!("{name}.conv"), c_in, c_out, p, false, seed),
            bn: BatchNorm2d::new(s, &format!("{name}.bn"), c_out),
            relu,
        }
    }

    /// Puts the batch norm into training or inference mode.
    pub fn set_training(&mut self, training: bool) {
        self.bn.training = training;
    }
}

impl Module for ConvBnRelu {
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let y = self.conv.forward(t, s, x);
        let y = self.bn.forward(t, s, y);
        if self.relu {
            ops::relu(t, y)
        } else {
            y
        }
    }
}

// ---------------------------------------------------------------------------
// Deformable convolution and its offset predictors
// ---------------------------------------------------------------------------

/// How a deformable layer predicts its offsets (and, for DCNv2, its mask).
pub enum OffsetPredictor {
    /// The original DCN design: one regular `k×k` convolution producing
    /// `2·G·k²` channels (paper Fig. 1).
    Standard(Conv2d),
    /// DEFCON's lightweight predictor: depthwise 3×3 (+BN+ReLU) followed by
    /// a 1×1 projection to `2·G·k²` channels, with **no** activation after
    /// the 1×1 because it emits signed fractional offsets (paper §III-A-b).
    Lightweight {
        /// Depthwise stage.
        dw: DwConv2d,
        /// Normalization after the depthwise stage.
        bn: BatchNorm2d,
        /// 1×1 projection.
        pw: Conv2d,
    },
    /// The modulated DCNv2 design (the flavour YOLACT++ builds on): one
    /// joint `k×k` convolution producing `3·G·k²` channels, the `2·G·k²`
    /// offsets followed by `G·k²` mask logits that go through a sigmoid.
    Modulated(Conv2d),
}

impl OffsetPredictor {
    /// Multiply-accumulate count per output position for this predictor —
    /// the quantity Eq. (9) compares.
    pub fn macs_per_position(&self, c_in: usize, k: usize, deform_groups: usize) -> usize {
        let off_ch = 2 * deform_groups * k * k;
        match self {
            OffsetPredictor::Standard(c) => c_in * c.params.kernel * c.params.kernel * off_ch,
            OffsetPredictor::Lightweight { dw, .. } => {
                c_in * dw.params.kernel * dw.params.kernel + c_in * off_ch
            }
            OffsetPredictor::Modulated(c) => {
                c_in * c.params.kernel * c.params.kernel * (off_ch + off_ch / 2)
            }
        }
    }

    fn set_training(&mut self, training: bool) {
        if let OffsetPredictor::Lightweight { bn, .. } = self {
            bn.training = training;
        }
    }
}

/// A trainable deformable convolution layer (paper Fig. 4a/4b):
/// an offset predictor followed by the deformable convolution proper,
/// with optional offset bounding/rounding applied between the two. With
/// the [`OffsetPredictor::Modulated`] predictor it is DCNv2.
pub struct DeformConv2d {
    /// Offset-predicting branch.
    pub offset_pred: OffsetPredictor,
    /// Main filter `[C_out, C_in, k, k]`.
    pub weight: ParamId,
    /// Deformable-conv hyper-parameters.
    pub params: DeformConv2dParams,
    /// Offset post-processing (identity / bounded / rounded).
    pub transform: OffsetTransform,
    /// The offsets Var produced by the most recent forward, for offset
    /// regularization (Table V) or inspection.
    pub last_offsets: Option<Var>,
}

impl DeformConv2d {
    /// Builds a DCN layer with the *standard* (full conv) offset predictor.
    pub fn new_standard(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: DeformConv2dParams,
        seed: u64,
    ) -> Self {
        // Offset conv mirrors the window of the main conv so its output is
        // [N, 2Gk², outH, outW].
        let off = Conv2d::new_zeroed(
            s,
            &format!("{name}.offset"),
            c_in,
            p.offset_channels(),
            p.conv,
            true,
        );
        let pred = OffsetPredictor::Standard(off);
        Self::with_predictor(s, name, c_in, c_out, p, seed, pred)
    }

    /// Builds a DCN layer with the *lightweight* offset predictor
    /// (depthwise 3×3 + BN + ReLU + pointwise 1×1).
    pub fn new_lightweight(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: DeformConv2dParams,
        seed: u64,
    ) -> Self {
        // The depthwise stage carries the window (incl. stride) so the
        // pointwise output matches [outH, outW].
        let dw = DwConv2d::new(
            s,
            &format!("{name}.offset_dw"),
            c_in,
            Conv2dParams {
                kernel: 3,
                stride: p.conv.stride,
                pad: 1,
                dilation: 1,
            },
            false,
            seed,
        );
        let bn = BatchNorm2d::new(s, &format!("{name}.offset_bn"), c_in);
        let pw = Conv2d::new_zeroed(
            s,
            &format!("{name}.offset_pw"),
            c_in,
            p.offset_channels(),
            Conv2dParams {
                kernel: 1,
                stride: 1,
                pad: 0,
                dilation: 1,
            },
            true,
        );
        let pred = OffsetPredictor::Lightweight { dw, bn, pw };
        Self::with_predictor(s, name, c_in, c_out, p, seed, pred)
    }

    /// Builds a *modulated* DCN layer (DCNv2) with the joint offset + mask
    /// predictor. Its zero initialization starts the layer as a rigid
    /// convolution with every tap at weight `σ(0) = 0.5` — the DCNv2
    /// paper's initialization.
    pub fn new_modulated(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: DeformConv2dParams,
        seed: u64,
    ) -> Self {
        let joint_ch = p.offset_channels() * 3 / 2;
        let joint = Conv2d::new_zeroed(s, &format!("{name}.pred"), c_in, joint_ch, p.conv, true);
        let pred = OffsetPredictor::Modulated(joint);
        Self::with_predictor(s, name, c_in, c_out, p, seed, pred)
    }

    /// The layer around `offset_pred`, with a Kaiming-initialized main
    /// filter registered after the predictor's parameters.
    fn with_predictor(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: DeformConv2dParams,
        seed: u64,
        offset_pred: OffsetPredictor,
    ) -> Self {
        let w = init::kaiming_conv(
            &[c_out, c_in, p.conv.kernel, p.conv.kernel],
            derive_seed(seed, name),
        );
        DeformConv2d {
            offset_pred,
            weight: s.add(&format!("{name}.weight"), w, true),
            params: p,
            transform: OffsetTransform::Identity,
            last_offsets: None,
        }
    }

    /// Train/eval switch (affects the lightweight predictor's BN).
    pub fn set_training(&mut self, training: bool) {
        self.offset_pred.set_training(training);
    }
}

impl Module for DeformConv2d {
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        let (offsets, mask) = match &mut self.offset_pred {
            OffsetPredictor::Standard(conv) => (conv.forward(t, s, x), None),
            OffsetPredictor::Lightweight { dw, bn, pw } => {
                let y = dw.forward(t, s, x);
                let y = bn.forward(t, s, y);
                let y = ops::relu(t, y);
                (pw.forward(t, s, y), None)
            }
            OffsetPredictor::Modulated(conv) => {
                let joint = conv.forward(t, s, x);
                let off_ch = self.params.offset_channels();
                let offsets = ops::slice_channels(t, joint, 0, off_ch);
                let logits = ops::slice_channels(t, joint, off_ch, off_ch / 2);
                (offsets, Some(ops::sigmoid(t, logits)))
            }
        };
        self.last_offsets = Some(offsets);
        let w = t.param(s, self.weight);
        ops::deform_conv2d_op(t, x, offsets, mask, w, self.params, self.transform)
    }
}

// ---------------------------------------------------------------------------
// Dual-path layer for the interval search
// ---------------------------------------------------------------------------

/// Which operator a searched layer resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerChoice {
    /// Regular 2-D convolution (`α⁰` wins).
    Regular,
    /// Deformable convolution (`α¹` wins).
    Deformable,
}

/// The dual-path search layer of paper Fig. 4(c): holds both a regular conv
/// and a DCN over the same window, mixes their outputs by Gumbel-Softmax
/// over a 2-vector architecture parameter `[α⁰, α¹]`.
pub struct DualPathConv {
    /// Regular path.
    pub regular: Conv2d,
    /// Deformable path.
    pub deform: DeformConv2d,
    /// Architecture parameter `[α⁰, α¹]`.
    pub alpha: ParamId,
    /// Gumbel-Softmax temperature (set per epoch by the search driver).
    pub tau: f32,
    /// RNG for the Gumbel perturbations.
    rng: StdRng,
    /// When `Some`, the layer is frozen to a single path (post-search
    /// fine-tuning; paper Algorithm 1, "Select Layer Type").
    pub frozen: Option<LayerChoice>,
}

impl DualPathConv {
    /// Builds the dual-path layer; both paths share the window `p.conv` and
    /// the DCN path uses the lightweight offset predictor when
    /// `lightweight` is set.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        s: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        p: DeformConv2dParams,
        lightweight: bool,
        seed: u64,
    ) -> Self {
        let regular = Conv2d::new(
            s,
            &format!("{name}.regular"),
            c_in,
            c_out,
            p.conv,
            false,
            seed,
        );
        let deform = if lightweight {
            DeformConv2d::new_lightweight(
                s,
                &format!("{name}.deform"),
                c_in,
                c_out,
                p,
                seed.wrapping_add(1),
            )
        } else {
            DeformConv2d::new_standard(
                s,
                &format!("{name}.deform"),
                c_in,
                c_out,
                p,
                seed.wrapping_add(1),
            )
        };
        let alpha = s.add(&format!("{name}.alpha"), Tensor::zeros(&[2]), false);
        DualPathConv {
            regular,
            deform,
            alpha,
            tau: 5.0,
            rng: StdRng::seed_from_u64(derive_seed(seed, &format!("{name}.gumbel"))),
            frozen: None,
        }
    }

    /// Current architecture decision by α magnitude (paper Algorithm 1).
    pub fn decision(&self, s: &ParamStore) -> LayerChoice {
        let a = s.value(self.alpha);
        if a.data()[1] > a.data()[0] {
            LayerChoice::Deformable
        } else {
            LayerChoice::Regular
        }
    }

    /// Freezes the layer to its current decision for fine-tuning.
    pub fn freeze(&mut self, s: &ParamStore) -> LayerChoice {
        let d = self.decision(s);
        self.frozen = Some(d);
        d
    }
}

impl Module for DualPathConv {
    fn forward(&mut self, t: &mut Tape, s: &ParamStore, x: Var) -> Var {
        match self.frozen {
            Some(LayerChoice::Regular) => self.regular.forward(t, s, x),
            Some(LayerChoice::Deformable) => self.deform.forward(t, s, x),
            None => {
                let reg = self.regular.forward(t, s, x);
                let def = self.deform.forward(t, s, x);
                let alpha = t.param(s, self.alpha);
                let noise: Vec<f32> = (0..2)
                    .map(|_| gumbel::sample_gumbel(&mut self.rng))
                    .collect();
                let wts = ops::gumbel_softmax_weights(t, alpha, &noise, self.tau);
                ops::mix2(t, reg, def, wts)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_module_forward_shapes() {
        let mut s = ParamStore::new();
        let mut m = Conv2d::new(&mut s, "c", 3, 8, Conv2dParams::downsample(3), true, 1);
        let mut t = Tape::new();
        let x = t.input(Tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, 2));
        let y = m.forward(&mut t, &s, x);
        assert_eq!(t.value(y).dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn bn_infer_uses_running_stats_after_training() {
        let mut s = ParamStore::new();
        let mut bn = BatchNorm2d::new(&mut s, "bn", 2);
        let x_data = Tensor::randn(&[8, 2, 4, 4], 5.0, 2.0, 3);
        // A few training passes to move the running stats.
        for _ in 0..20 {
            let mut t = Tape::new();
            let x = t.input(x_data.clone());
            let _ = bn.forward(&mut t, &s, x);
        }
        assert!((bn.running_mean[0] - 5.0).abs() < 1.0);
        bn.training = false;
        let mut t = Tape::new();
        let x = t.input(x_data.clone());
        let y = bn.forward(&mut t, &s, x);
        // Output should be roughly normalized.
        assert!(t.value(y).mean().abs() < 0.5);
    }

    #[test]
    fn deform_layer_with_zero_offsets_equals_regular_conv() {
        // Offset predictor is zero-initialized, so before any training the
        // DCN must reproduce a rigid convolution with its own weights.
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut dcn = DeformConv2d::new_standard(&mut s, "d", 3, 4, p, 7);
        let x_data = Tensor::randn(&[1, 3, 6, 6], 0.0, 1.0, 8);
        let mut t = Tape::new();
        let x = t.input(x_data.clone());
        let y = dcn.forward(&mut t, &s, x);
        let w = s.value(dcn.weight);
        let y_ref = defcon_tensor::conv::conv2d(&x_data, w, None, &p.conv);
        defcon_tensor::assert_close(t.value(y), &y_ref, 1e-4, 1e-4);
    }

    #[test]
    fn lightweight_predictor_cuts_macs_per_eq9() {
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let std = DeformConv2d::new_standard(&mut s, "a", 64, 64, p, 1);
        let lw = DeformConv2d::new_lightweight(&mut s, "b", 64, 64, p, 1);
        let m_std = std.offset_pred.macs_per_position(64, 3, 1);
        let m_lw = lw.offset_pred.macs_per_position(64, 3, 1);
        let reduction = 1.0 - m_lw as f64 / m_std as f64;
        // Paper Eq. (9): 83.3 % MAC reduction for k=3.
        assert!((reduction - 0.8333).abs() < 0.01, "reduction {reduction}");
    }

    #[test]
    fn lightweight_dcn_trains_end_to_end() {
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut dcn = DeformConv2d::new_lightweight(&mut s, "d", 2, 2, p, 9);
        let x_data = Tensor::randn(&[2, 2, 5, 5], 0.0, 1.0, 10);
        let mut last = f32::MAX;
        for _ in 0..15 {
            s.zero_grads();
            let mut t = Tape::new();
            let x = t.input(x_data.clone());
            let y = dcn.forward(&mut t, &s, x);
            let g = ops::global_avg_pool_op(&mut t, y);
            let tgt = Tensor::full(&[2, 2], 1.0);
            let l = crate::loss::mse(&mut t, g, &tgt);
            last = t.value(l).data()[0];
            t.backward(l);
            t.write_param_grads(&mut s);
            s.sgd_step(0.2, 0.9, 0.0);
        }
        assert!(last < 0.1, "lightweight DCN failed to fit: {last}");
    }

    #[test]
    fn dual_path_mixes_and_freezes() {
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut dp = DualPathConv::new(&mut s, "dp", 2, 3, p, true, 11);
        let x_data = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 12);
        let mut t = Tape::new();
        let x = t.input(x_data.clone());
        let y = dp.forward(&mut t, &s, x);
        assert_eq!(t.value(y).dims(), &[1, 3, 5, 5]);
        // With α = [0, 0] the decision defaults to Regular (ties favour α⁰).
        assert_eq!(dp.decision(&s), LayerChoice::Regular);
        // Push α¹ above α⁰ and freeze: forward must now be the DCN path only.
        s.value_mut(dp.alpha).data_mut()[1] = 1.0;
        assert_eq!(dp.freeze(&s), LayerChoice::Deformable);
        let mut t2 = Tape::new();
        let x2 = t2.input(x_data);
        let y2 = dp.forward(&mut t2, &s, x2);
        assert_eq!(t2.value(y2).dims(), &[1, 3, 5, 5]);
    }

    #[test]
    fn alpha_receives_gradient_through_mix() {
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut dp = DualPathConv::new(&mut s, "dp", 1, 1, p, false, 13);
        let mut t = Tape::new();
        let x = t.input(Tensor::randn(&[1, 1, 4, 4], 0.0, 1.0, 14));
        let y = dp.forward(&mut t, &s, x);
        let l = ops::mean_all(&mut t, y);
        let l2 = ops::square(&mut t, l);
        t.backward(l2);
        t.write_param_grads(&mut s);
        let ga = s.grad(dp.alpha);
        assert!(
            ga.data().iter().any(|&v| v != 0.0),
            "alpha gradient is zero"
        );
    }

    #[test]
    fn zero_init_is_half_weighted_rigid_conv() {
        // At init: offsets 0, mask logits 0 → σ = 0.5 → 0.5 × rigid conv.
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut m = DeformConv2d::new_modulated(&mut s, "md", 2, 3, p, 11);
        let x_data = Tensor::randn(&[1, 2, 6, 6], 0.0, 1.0, 12);
        let mut t = Tape::new();
        let x = t.input(x_data.clone());
        let y = m.forward(&mut t, &s, x);
        let rigid = defcon_tensor::conv::conv2d(&x_data, s.value(m.weight), None, &p.conv);
        defcon_tensor::assert_close(t.value(y), &rigid.scale(0.5), 1e-4, 1e-4);
    }

    #[test]
    fn modulated_layer_trains() {
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut m = DeformConv2d::new_modulated(&mut s, "md", 2, 2, p, 13);
        let x_data = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 14);
        let mut last = f32::MAX;
        for _ in 0..25 {
            s.zero_grads();
            let mut t = Tape::new();
            let x = t.input(x_data.clone());
            let y = m.forward(&mut t, &s, x);
            let g = ops::global_avg_pool_op(&mut t, y);
            let l = crate::loss::mse(&mut t, g, &Tensor::full(&[1, 2], 0.7));
            last = t.value(l).data()[0];
            t.backward(l);
            t.write_param_grads(&mut s);
            s.sgd_step(0.3, 0.9, 0.0);
        }
        assert!(last < 0.05, "modulated DCN failed to fit: {last}");
    }

    #[test]
    fn predictor_receives_gradient_through_both_branches() {
        let mut s = ParamStore::new();
        let p = DeformConv2dParams::same3x3();
        let mut m = DeformConv2d::new_modulated(&mut s, "md", 1, 1, p, 15);
        let mut t = Tape::new();
        let x = t.input(Tensor::randn(&[1, 1, 5, 5], 0.0, 1.0, 16));
        let y = m.forward(&mut t, &s, x);
        let l = ops::mean_all(&mut t, y);
        let l2 = ops::square(&mut t, l);
        t.backward(l2);
        t.write_param_grads(&mut s);
        // The joint predictor's bias must see gradient (weights are zero at
        // init, so the weight gradient flows but may be small; the bias
        // gradient comes through both the mask sigmoid and the offsets).
        let OffsetPredictor::Modulated(pred) = &m.offset_pred else {
            unreachable!("new_modulated builds the joint predictor")
        };
        let gb = s.grad(pred.bias.expect("the joint predictor has a bias"));
        assert!(
            gb.data().iter().any(|&v| v.abs() > 0.0),
            "predictor bias got no gradient"
        );
    }
}
