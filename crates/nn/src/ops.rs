//! Differentiable op constructors.
//!
//! Each function records one node on the [`Tape`]: it computes the forward
//! value eagerly and captures just enough state in a one-shot closure to
//! produce parent gradients during [`Tape::backward`].

use crate::graph::{Tape, Var};
use defcon_tensor::conv::{
    conv2d, conv2d_backward, depthwise_conv2d, depthwise_conv2d_backward, pointwise_conv2d,
    Conv2dParams,
};
use defcon_tensor::norm::{batch_norm2d_backward, batch_norm2d_train};
use defcon_tensor::pool::{
    global_avg_pool, global_avg_pool_backward, upsample_nearest_2x, upsample_nearest_2x_backward,
};
use defcon_tensor::sample::{
    deform_conv2d_backward_ref, deform_conv2d_ref, DeformConv2dParams, Modulation, OffsetTransform,
};
use defcon_tensor::{gemm, Tensor};

// ---------------------------------------------------------------------------
// Elementwise & reductions
// ---------------------------------------------------------------------------

/// `a + b` (same shape).
pub fn add(t: &mut Tape, a: Var, b: Var) -> Var {
    let v = t.value(a).add(t.value(b));
    let dims_a = t.value(a).dims().to_vec();
    t.push(
        v,
        vec![a, b],
        Some(Box::new(move |gy| {
            debug_assert_eq!(gy.dims(), dims_a.as_slice());
            vec![gy.clone(), gy.clone()]
        })),
    )
}

/// `a - b` (same shape).
pub fn sub(t: &mut Tape, a: Var, b: Var) -> Var {
    let v = t.value(a).sub(t.value(b));
    t.push(
        v,
        vec![a, b],
        Some(Box::new(move |gy| vec![gy.clone(), gy.scale(-1.0)])),
    )
}

/// `a * b` elementwise (same shape).
pub fn mul(t: &mut Tape, a: Var, b: Var) -> Var {
    let av = t.value(a).clone();
    let bv = t.value(b).clone();
    let v = av.mul(&bv);
    t.push(
        v,
        vec![a, b],
        Some(Box::new(move |gy| vec![gy.mul(&bv), gy.mul(&av)])),
    )
}

/// `a * s` for a constant scalar.
pub fn scale(t: &mut Tape, a: Var, s: f32) -> Var {
    let v = t.value(a).scale(s);
    t.push(v, vec![a], Some(Box::new(move |gy| vec![gy.scale(s)])))
}

/// Elementwise square.
pub fn square(t: &mut Tape, a: Var) -> Var {
    let av = t.value(a).clone();
    let v = av.map(|x| x * x);
    t.push(
        v,
        vec![a],
        Some(Box::new(move |gy| vec![gy.zip(&av, |g, x| 2.0 * g * x)])),
    )
}

/// ReLU.
pub fn relu(t: &mut Tape, a: Var) -> Var {
    let av = t.value(a).clone();
    let v = av.map(|x| x.max(0.0));
    t.push(
        v,
        vec![a],
        Some(Box::new(move |gy| {
            vec![gy.zip(&av, |g, x| if x > 0.0 { g } else { 0.0 })]
        })),
    )
}

/// Sigmoid.
pub fn sigmoid(t: &mut Tape, a: Var) -> Var {
    let v = t.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
    let sv = v.clone();
    t.push(
        v,
        vec![a],
        Some(Box::new(move |gy| {
            vec![gy.zip(&sv, |g, s| g * s * (1.0 - s))]
        })),
    )
}

/// Hyperbolic tangent.
pub fn tanh(t: &mut Tape, a: Var) -> Var {
    let v = t.value(a).map(|x| x.tanh());
    let tv = v.clone();
    t.push(
        v,
        vec![a],
        Some(Box::new(move |gy| {
            vec![gy.zip(&tv, |g, y| g * (1.0 - y * y))]
        })),
    )
}

/// Sum of all elements -> scalar `[1]`.
pub fn sum_all(t: &mut Tape, a: Var) -> Var {
    let dims = t.value(a).dims().to_vec();
    let v = Tensor::from_vec(vec![t.value(a).sum()], &[1]);
    t.push(
        v,
        vec![a],
        Some(Box::new(move |gy| {
            let g = gy.data()[0];
            vec![Tensor::full(&dims, g)]
        })),
    )
}

/// Mean of all elements -> scalar `[1]`.
pub fn mean_all(t: &mut Tape, a: Var) -> Var {
    let n = t.value(a).numel() as f32;
    let s = sum_all(t, a);
    scale(t, s, 1.0 / n)
}

/// Reshape (gradient reshapes back).
pub fn reshape(t: &mut Tape, a: Var, dims: &[usize]) -> Var {
    let v = t.value(a).reshape(dims);
    let src_dims = t.value(a).dims().to_vec();
    t.push(
        v,
        vec![a],
        Some(Box::new(move |gy| vec![gy.reshape(&src_dims)])),
    )
}

/// Channel concatenation of NCHW vars.
pub fn cat_channels(t: &mut Tape, parts: &[Var]) -> Var {
    let tensors: Vec<Tensor> = parts.iter().map(|&p| t.value(p).clone()).collect();
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let v = Tensor::cat_channels(&refs);
    let channels: Vec<usize> = tensors.iter().map(|p| p.dims()[1]).collect();
    let shapes: Vec<Vec<usize>> = tensors.iter().map(|p| p.dims().to_vec()).collect();
    t.push(
        v,
        parts.to_vec(),
        Some(Box::new(move |gy| {
            let (n, _, h, w) = gy.shape().nchw();
            let mut grads: Vec<Tensor> = shapes.iter().map(|s| Tensor::zeros(s)).collect();
            for ni in 0..n {
                let mut c_off = 0usize;
                for (gi, &pc) in channels.iter().enumerate() {
                    for c in 0..pc {
                        for hh in 0..h {
                            for ww in 0..w {
                                *grads[gi].at4_mut(ni, c, hh, ww) = gy.at4(ni, c_off + c, hh, ww);
                            }
                        }
                    }
                    c_off += pc;
                }
            }
            grads
        })),
    )
}

/// Channels `start..start + len` of an NCHW var; the gradient scatters back
/// into those channels.
pub fn slice_channels(t: &mut Tape, a: Var, start: usize, len: usize) -> Var {
    let src = t.value(a);
    let dims = src.dims().to_vec();
    let (n, c, h, w) = src.shape().nchw();
    assert!(start + len <= c, "channels {start}..{} of {c}", start + len);
    let plane = h * w;
    let slice = move |ni: usize| (ni * c + start) * plane..(ni * c + start + len) * plane;
    let data: Vec<f32> = (0..n)
        .flat_map(|ni| src.data()[slice(ni)].iter().copied())
        .collect();
    t.push(
        Tensor::from_vec(data, &[n, len, h, w]),
        vec![a],
        Some(Box::new(move |gy| {
            let mut g = Tensor::zeros(&dims);
            for (ni, part) in gy.data().chunks(len * plane).enumerate() {
                g.data_mut()[slice(ni)].copy_from_slice(part);
            }
            vec![g]
        })),
    )
}

// ---------------------------------------------------------------------------
// Convolutions & linear
// ---------------------------------------------------------------------------

/// Regular 2-D convolution (optional bias).
pub fn conv2d_op(t: &mut Tape, x: Var, w: Var, b: Option<Var>, p: Conv2dParams) -> Var {
    let xv = t.value(x).clone();
    let wv = t.value(w).clone();
    let bv = b.map(|bb| t.value(bb).clone());
    let v = conv2d(&xv, &wv, bv.as_ref(), &p);
    let mut parents = vec![x, w];
    if let Some(bb) = b {
        parents.push(bb);
    }
    let has_bias = b.is_some();
    t.push(
        v,
        parents,
        Some(Box::new(move |gy| {
            let (gx, gw, gb) = conv2d_backward(&xv, &wv, gy, &p);
            if has_bias {
                vec![gx, gw, gb]
            } else {
                vec![gx, gw]
            }
        })),
    )
}

/// Depthwise 2-D convolution (optional bias).
pub fn depthwise_conv2d_op(t: &mut Tape, x: Var, w: Var, b: Option<Var>, p: Conv2dParams) -> Var {
    let xv = t.value(x).clone();
    let wv = t.value(w).clone();
    let bv = b.map(|bb| t.value(bb).clone());
    let v = depthwise_conv2d(&xv, &wv, bv.as_ref(), &p);
    let mut parents = vec![x, w];
    if let Some(bb) = b {
        parents.push(bb);
    }
    let has_bias = b.is_some();
    t.push(
        v,
        parents,
        Some(Box::new(move |gy| {
            let (gx, gw, gb) = depthwise_conv2d_backward(&xv, &wv, gy, &p);
            if has_bias {
                vec![gx, gw, gb]
            } else {
                vec![gx, gw]
            }
        })),
    )
}

/// Pointwise (1×1) convolution (optional bias).
pub fn pointwise_conv2d_op(t: &mut Tape, x: Var, w: Var, b: Option<Var>) -> Var {
    let xv = t.value(x).clone();
    let wv = t.value(w).clone();
    let bv = b.map(|bb| t.value(bb).clone());
    let v = pointwise_conv2d(&xv, &wv, bv.as_ref());
    let mut parents = vec![x, w];
    if let Some(bb) = b {
        parents.push(bb);
    }
    let has_bias = b.is_some();
    let p = Conv2dParams {
        kernel: 1,
        stride: 1,
        pad: 0,
        dilation: 1,
    };
    t.push(
        v,
        parents,
        Some(Box::new(move |gy| {
            let (gx, gw, gb) = conv2d_backward(&xv, &wv, gy, &p);
            if has_bias {
                vec![gx, gw, gb]
            } else {
                vec![gx, gw]
            }
        })),
    )
}

/// Deformable 2-D convolution (paper Eq. 2) with differentiable offsets,
/// the given offset transform (identity / bounded / rounded) and, for the
/// modulated DCNv2, a differentiable per-tap `mask` (sigmoid-activated by
/// the caller); `None` is DCNv1.
pub fn deform_conv2d_op(
    t: &mut Tape,
    x: Var,
    offsets: Var,
    mask: Option<Var>,
    w: Var,
    p: DeformConv2dParams,
    transform: OffsetTransform,
) -> Var {
    let xv = t.value(x).clone();
    let ov = t.value(offsets).clone();
    let mv = mask.map(|m| t.value(m).clone());
    let wv = t.value(w).clone();
    let modulation = mv.as_ref().map_or(Modulation::None, Modulation::Mask);
    let v = deform_conv2d_ref(&xv, &ov, modulation, &wv, None, &p, transform);
    let mut parents = vec![x, offsets, w];
    parents.extend(mask);
    t.push(
        v,
        parents,
        Some(Box::new(move |gy| {
            let (gx, goff, gmask, gw) =
                deform_conv2d_backward_ref(&xv, &ov, mv.as_ref(), &wv, gy, &p, transform);
            let mut grads = vec![gx, goff, gw];
            grads.extend(gmask);
            grads
        })),
    )
}

/// Fully-connected layer: `y = x · wᵀ + b` with `x: [N, F]`, `w: [O, F]`,
/// `b: [O]`.
pub fn linear(t: &mut Tape, x: Var, w: Var, b: Option<Var>) -> Var {
    let xv = t.value(x).clone();
    let wv = t.value(w).clone();
    let (n, f) = (xv.dims()[0], xv.dims()[1]);
    let o = wv.dims()[0];
    assert_eq!(wv.dims()[1], f, "linear: weight in-features mismatch");
    let mut y = vec![0.0f32; n * o];
    gemm::gemm_bt(xv.data(), wv.data(), &mut y, n, f, o);
    let mut yt = Tensor::from_vec(y, &[n, o]);
    if let Some(bb) = b {
        let bv = t.value(bb);
        assert_eq!(bv.numel(), o);
        for i in 0..n {
            for j in 0..o {
                yt.data_mut()[i * o + j] += bv.data()[j];
            }
        }
    }
    let mut parents = vec![x, w];
    if let Some(bb) = b {
        parents.push(bb);
    }
    let has_bias = b.is_some();
    t.push(
        yt,
        parents,
        Some(Box::new(move |gy| {
            // gx = gy (n×o) · w (o×f); gw = gyᵀ (o×n) · x (n×f)
            let mut gx = vec![0.0f32; n * f];
            gemm::gemm(gy.data(), wv.data(), &mut gx, n, o, f);
            let mut gw = vec![0.0f32; o * f];
            gemm::gemm_at(gy.data(), xv.data(), &mut gw, o, n, f);
            let mut out = vec![Tensor::from_vec(gx, &[n, f]), Tensor::from_vec(gw, &[o, f])];
            if has_bias {
                let mut gb = vec![0.0f32; o];
                for i in 0..n {
                    for j in 0..o {
                        gb[j] += gy.data()[i * o + j];
                    }
                }
                out.push(Tensor::from_vec(gb, &[o]));
            }
            out
        })),
    )
}

// ---------------------------------------------------------------------------
// Normalization, pooling, resampling
// ---------------------------------------------------------------------------

/// Training-mode batch norm; updates `running_mean/var` in place through the
/// provided mutable slices at record time.
pub fn batch_norm2d_op(
    t: &mut Tape,
    x: Var,
    gamma: Var,
    beta: Var,
    running_mean: &mut [f32],
    running_var: &mut [f32],
    momentum: f32,
    eps: f32,
) -> Var {
    let xv = t.value(x).clone();
    let gv = t.value(gamma).clone();
    let bv = t.value(beta).clone();
    let (y, cache) = batch_norm2d_train(&xv, &gv, &bv, running_mean, running_var, momentum, eps);
    t.push(
        y,
        vec![x, gamma, beta],
        Some(Box::new(move |gy| {
            let (gx, gg, gb) = batch_norm2d_backward(gy, &gv, &cache);
            vec![gx, gg, gb]
        })),
    )
}

/// Global average pooling `[N, C, H, W] -> [N, C]`.
pub fn global_avg_pool_op(t: &mut Tape, x: Var) -> Var {
    let xv = t.value(x).clone();
    let in_dims = xv.dims().to_vec();
    let y = global_avg_pool(&xv);
    t.push(
        y,
        vec![x],
        Some(Box::new(move |gy| {
            vec![global_avg_pool_backward(gy, &in_dims)]
        })),
    )
}

/// Nearest-neighbour 2× upsample.
pub fn upsample2x_op(t: &mut Tape, x: Var) -> Var {
    let y = upsample_nearest_2x(t.value(x));
    t.push(
        y,
        vec![x],
        Some(Box::new(move |gy| vec![upsample_nearest_2x_backward(gy)])),
    )
}

// ---------------------------------------------------------------------------
// Architecture-search specific ops
// ---------------------------------------------------------------------------

/// Weighted sum of two same-shaped tensors with a differentiable 2-vector of
/// weights: `out = w[0]·a + w[1]·b` — the dual-path mix of paper Eq. (5)
/// once the Gumbel-Softmax weights have been computed.
pub fn mix2(t: &mut Tape, a: Var, b: Var, w: Var) -> Var {
    let av = t.value(a).clone();
    let bv = t.value(b).clone();
    let wv = t.value(w).clone();
    assert_eq!(wv.numel(), 2, "mix2 weight must be length-2");
    let (w0, w1) = (wv.data()[0], wv.data()[1]);
    let v = av.scale(w0).add(&bv.scale(w1));
    t.push(
        v,
        vec![a, b, w],
        Some(Box::new(move |gy| {
            let ga = gy.scale(w0);
            let gb = gy.scale(w1);
            let gw0: f32 = gy
                .data()
                .iter()
                .zip(av.data().iter())
                .map(|(g, x)| g * x)
                .sum();
            let gw1: f32 = gy
                .data()
                .iter()
                .zip(bv.data().iter())
                .map(|(g, x)| g * x)
                .sum();
            vec![ga, gb, Tensor::from_vec(vec![gw0, gw1], &[2])]
        })),
    )
}

/// Softmax over a 1-D vector with an added constant perturbation and
/// temperature: `softmax((x + eps_const) / tau)` — the Gumbel-Softmax
/// weighting of paper Eq. (5). The perturbation is treated as a constant
/// (reparameterization trick), so gradients flow only through `x`.
pub fn gumbel_softmax_weights(t: &mut Tape, x: Var, noise: &[f32], tau: f32) -> Var {
    let xv = t.value(x).clone();
    assert_eq!(xv.numel(), noise.len(), "noise length must match logits");
    let logits: Vec<f32> = xv
        .data()
        .iter()
        .zip(noise.iter())
        .map(|(a, e)| (a + e) / tau)
        .collect();
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|v| (v - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    let soft: Vec<f32> = exps.iter().map(|e| e / z).collect();
    let soft_t = Tensor::from_vec(soft.clone(), xv.dims());
    t.push(
        soft_t,
        vec![x],
        Some(Box::new(move |gy| {
            // d softmax_i / d x_j = (s_i (δ_ij - s_j)) / tau
            let dot: f32 = gy.data().iter().zip(soft.iter()).map(|(g, s)| g * s).sum();
            let gx: Vec<f32> = gy
                .data()
                .iter()
                .zip(soft.iter())
                .map(|(g, s)| s * (g - dot) / tau)
                .collect();
            vec![Tensor::from_vec(gx, &[gy.numel()])]
        })),
    )
}

/// The latency penalty of the interval search (paper Eq. 6):
///
/// `L_s = | Σ_n ⌈α¹_n > α⁰_n⌋ · α¹_n · t_n − T |²`
///
/// `alphas[n]` is the length-2 architecture parameter of layer `n`
/// (`[α⁰, α¹]`), `lat[n]` its measured DCN latency `t(w_n)` from the lookup
/// table, and `target` is `T`. The indicator gate is evaluated on current
/// values and receives no gradient (paper: "does not require a gradient");
/// `∂L_s/∂α¹_n` follows Eq. (8) exactly.
pub fn latency_penalty(t: &mut Tape, alphas: &[Var], lat: &[f32], target: f32) -> Var {
    assert_eq!(
        alphas.len(),
        lat.len(),
        "one latency per architecture parameter"
    );
    let mut s = -target;
    let mut gates = Vec::with_capacity(alphas.len());
    for (&a, &tn) in alphas.iter().zip(lat.iter()) {
        let av = t.value(a);
        assert_eq!(av.numel(), 2, "architecture parameter must be [α⁰, α¹]");
        let gate = av.data()[1] > av.data()[0];
        gates.push(gate);
        if gate {
            s += av.data()[1] * tn;
        }
    }
    let loss = Tensor::from_vec(vec![s * s], &[1]);
    let lat = lat.to_vec();
    t.push(
        loss,
        alphas.to_vec(),
        Some(Box::new(move |gy| {
            let g = gy.data()[0];
            gates
                .iter()
                .zip(lat.iter())
                .map(|(&gate, &tn)| {
                    let d_a1 = if gate { 2.0 * s * tn * g } else { 0.0 };
                    Tensor::from_vec(vec![0.0, d_a1], &[2])
                })
                .collect()
        })),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Tape;

    fn finite_diff(f: impl Fn(&Tensor) -> f32, x: &Tensor, idx: usize, eps: f32) -> f32 {
        let mut xp = x.clone();
        xp.data_mut()[idx] += eps;
        let mut xm = x.clone();
        xm.data_mut()[idx] -= eps;
        (f(&xp) - f(&xm)) / (2.0 * eps)
    }

    #[test]
    fn relu_gradient_gates() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(vec![-1.0, 2.0], &[2]));
        let y = relu(&mut t, x);
        let l = sum_all(&mut t, y);
        t.backward(l);
        assert_eq!(t.grad(x).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_gradient_matches_fd() {
        let xv = Tensor::from_vec(vec![0.3, -1.2, 2.0], &[3]);
        let mut t = Tape::new();
        let x = t.input(xv.clone());
        let y = sigmoid(&mut t, x);
        let l = sum_all(&mut t, y);
        t.backward(l);
        let g = t.grad(x).unwrap().clone();
        for i in 0..3 {
            let fd = finite_diff(|x| x.map(|v| 1.0 / (1.0 + (-v).exp())).sum(), &xv, i, 1e-3);
            assert!((g.data()[i] - fd).abs() < 1e-3);
        }
    }

    #[test]
    fn linear_gradients_match_fd() {
        let xv = Tensor::randn(&[3, 4], 0.0, 1.0, 50);
        let wv = Tensor::randn(&[2, 4], 0.0, 1.0, 51);
        let bv = Tensor::randn(&[2], 0.0, 1.0, 52);
        let run = |xv: &Tensor, wv: &Tensor, bv: &Tensor| -> f32 {
            let mut t = Tape::new();
            let x = t.input(xv.clone());
            let w = t.input(wv.clone());
            let b = t.input(bv.clone());
            let y = linear(&mut t, x, w, Some(b));
            let s = square(&mut t, y);
            let l = sum_all(&mut t, s);
            t.value(l).data()[0]
        };
        let mut t = Tape::new();
        let x = t.input(xv.clone());
        let w = t.input(wv.clone());
        let b = t.input(bv.clone());
        let y = linear(&mut t, x, w, Some(b));
        let s = square(&mut t, y);
        let l = sum_all(&mut t, s);
        t.backward(l);
        for i in [0usize, 5, 11] {
            let fd = finite_diff(|xx| run(xx, &wv, &bv), &xv, i, 1e-2);
            assert!((t.grad(x).unwrap().data()[i] - fd).abs() < 2e-2);
        }
        for i in [0usize, 3, 7] {
            let fd = finite_diff(|ww| run(&xv, ww, &bv), &wv, i, 1e-2);
            assert!((t.grad(w).unwrap().data()[i] - fd).abs() < 2e-2);
        }
        for i in [0usize, 1] {
            let fd = finite_diff(|bb| run(&xv, &wv, bb), &bv, i, 1e-2);
            assert!((t.grad(b).unwrap().data()[i] - fd).abs() < 2e-2);
        }
    }

    #[test]
    fn mix2_gradients() {
        let mut t = Tape::new();
        let a = t.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let b = t.input(Tensor::from_vec(vec![10.0, 20.0], &[2]));
        let w = t.input(Tensor::from_vec(vec![0.25, 0.75], &[2]));
        let m = mix2(&mut t, a, b, w);
        assert_eq!(t.value(m).data(), &[7.75, 15.5]);
        let l = sum_all(&mut t, m);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().data(), &[0.25, 0.25]);
        assert_eq!(t.grad(b).unwrap().data(), &[0.75, 0.75]);
        assert_eq!(t.grad(w).unwrap().data(), &[3.0, 30.0]); // sum(a), sum(b)
    }

    #[test]
    fn gumbel_softmax_weights_sum_to_one_and_grad_matches_fd() {
        let logits = Tensor::from_vec(vec![0.5, -0.3], &[2]);
        let noise = [0.1f32, 0.2];
        let tau = 0.7;
        let mut t = Tape::new();
        let x = t.input(logits.clone());
        let wsm = gumbel_softmax_weights(&mut t, x, &noise, tau);
        let sum: f32 = t.value(wsm).data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // loss = w[0] (pick first component)
        let sel = t.input(Tensor::from_vec(vec![1.0, 0.0], &[2]));
        let picked = mul(&mut t, wsm, sel);
        let l = sum_all(&mut t, picked);
        t.backward(l);
        let g = t.grad(x).unwrap().clone();
        let f = |lg: &Tensor| -> f32 {
            let l0 = (lg.data()[0] + noise[0]) / tau;
            let l1 = (lg.data()[1] + noise[1]) / tau;
            let m = l0.max(l1);
            let e0 = (l0 - m).exp();
            let e1 = (l1 - m).exp();
            e0 / (e0 + e1)
        };
        for i in 0..2 {
            let fd = finite_diff(f, &logits, i, 1e-3);
            assert!((g.data()[i] - fd).abs() < 1e-3, "{} vs {fd}", g.data()[i]);
        }
    }

    #[test]
    fn latency_penalty_matches_eq8() {
        // Two layers: layer 0 gated on (α¹>α⁰), layer 1 gated off.
        let mut t = Tape::new();
        let a0 = t.input(Tensor::from_vec(vec![0.2, 0.8], &[2]));
        let a1 = t.input(Tensor::from_vec(vec![0.9, 0.1], &[2]));
        let lat = [3.0f32, 5.0];
        let target = 1.0;
        let l = latency_penalty(&mut t, &[a0, a1], &lat, target);
        // s = 0.8*3 - 1 = 1.4; loss = 1.96
        assert!((t.value(l).data()[0] - 1.96).abs() < 1e-5);
        t.backward(l);
        // dL/dα¹_0 = 2*s*t0 = 2*1.4*3 = 8.4 ; α⁰ grad = 0; gated-off layer = 0.
        assert!((t.grad(a0).unwrap().data()[1] - 8.4).abs() < 1e-4);
        assert_eq!(t.grad(a0).unwrap().data()[0], 0.0);
        assert_eq!(t.grad(a1).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn cat_channels_grad_splits() {
        let mut t = Tape::new();
        let a = t.input(Tensor::ones(&[1, 1, 2, 2]));
        let b = t.input(Tensor::ones(&[1, 2, 2, 2]));
        let c = cat_channels(&mut t, &[a, b]);
        let s = scale(&mut t, c, 2.0);
        let l = sum_all(&mut t, s);
        t.backward(l);
        assert_eq!(t.grad(a).unwrap().dims(), &[1, 1, 2, 2]);
        assert_eq!(t.grad(b).unwrap().dims(), &[1, 2, 2, 2]);
        assert!(t.grad(a).unwrap().data().iter().all(|&v| v == 2.0));
        assert!(t.grad(b).unwrap().data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn slice_channels_picks_and_scatters_back() {
        let mut t = Tape::new();
        let a = t.input(Tensor::from_vec(
            (0..16).map(|v| v as f32).collect(),
            &[2, 4, 2, 1],
        ));
        let s = slice_channels(&mut t, a, 1, 2);
        assert_eq!(t.value(s).dims(), &[2, 2, 2, 1]);
        assert_eq!(
            t.value(s).data(),
            &[2.0, 3.0, 4.0, 5.0, 10.0, 11.0, 12.0, 13.0]
        );
        let l = sum_all(&mut t, s);
        t.backward(l);
        let ones_in_slice: Vec<f32> = (0..16)
            .map(|i| if (2..6).contains(&(i % 8)) { 1.0 } else { 0.0 })
            .collect();
        assert_eq!(t.grad(a).unwrap().data(), ones_in_slice.as_slice());
    }

    #[test]
    fn conv_chain_trains_toward_target() {
        // Sanity: a conv + relu + gap pipeline can fit a constant target.
        use crate::graph::ParamStore;
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::randn(&[1, 1, 3, 3], 0.0, 0.3, 60), true);
        let x_data = Tensor::rand_uniform(&[2, 1, 6, 6], 0.5, 1.0, 61);
        let mut last = f32::MAX;
        for _ in 0..100 {
            store.zero_grads();
            let mut t = Tape::new();
            let x = t.input(x_data.clone());
            let wv = t.param(&store, w);
            let y = conv2d_op(&mut t, x, wv, None, Conv2dParams::same(3));
            let g = global_avg_pool_op(&mut t, y);
            let tgt = t.input(Tensor::full(&[2, 1], 3.0));
            let d = sub(&mut t, g, tgt);
            let sq = square(&mut t, d);
            let l = mean_all(&mut t, sq);
            let lv = t.value(l).data()[0];
            t.backward(l);
            t.write_param_grads(&mut store);
            store.sgd_step(0.1, 0.9, 0.0);
            last = lv;
        }
        assert!(last < 0.05, "loss did not converge: {last}");
    }
}
