//! Regular and depthwise 2-D convolutions (im2col + GEMM), plus the
//! im2col/col2im lowering used by the autograd backward passes. A pointwise
//! (1×1) convolution is [`conv2d`] with a 1×1 window.

use crate::gemm::{gemm, gemm_at, gemm_bt};
use crate::shape::conv_out_dim;
use crate::Tensor;
use defcon_support::par::ParallelSliceMut;

/// Hyper-parameters of a 2-D convolution window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along both axes.
    pub pad: usize,
    /// Dilation along both axes.
    pub dilation: usize,
}

impl Conv2dParams {
    /// "Same" padding for odd kernels at stride 1 (`pad = k/2`).
    pub fn same(kernel: usize) -> Self {
        Conv2dParams {
            kernel,
            stride: 1,
            pad: kernel / 2,
            dilation: 1,
        }
    }

    /// Stride-2 downsampling variant of [`Conv2dParams::same`].
    pub fn downsample(kernel: usize) -> Self {
        Conv2dParams {
            kernel,
            stride: 2,
            pad: kernel / 2,
            dilation: 1,
        }
    }

    /// Output spatial dims for an input of `h × w`.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_dim(h, self.kernel, self.stride, self.pad, self.dilation),
            conv_out_dim(w, self.kernel, self.stride, self.pad, self.dilation),
        )
    }
}

/// Lowers one batch item to the im2col patch matrix of shape
/// `[C*k*k, outH*outW]` (row-major, flattened into `out`).
///
/// Row `(c*k + ki)*k + kj` holds, for every output position, the input pixel
/// that tap `(ki, kj)` of channel `c` reads (0 outside the image).
pub fn im2col(x: &Tensor, n: usize, p: &Conv2dParams, out: &mut [f32]) {
    let (_, c_in, h, w) = x.shape().nchw();
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    assert_eq!(out.len(), c_in * p.kernel * p.kernel * cols);

    out.par_chunks_mut(p.kernel * p.kernel * cols)
        .enumerate()
        .for_each(|(c, chunk)| {
            for ki in 0..p.kernel {
                for kj in 0..p.kernel {
                    let row = (ki * p.kernel + kj) * cols;
                    for oy in 0..oh {
                        let iy = (oy * p.stride + ki * p.dilation) as isize - p.pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * p.stride + kj * p.dilation) as isize - p.pad as isize;
                            let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                x.at4(n, c, iy as usize, ix as usize)
                            } else {
                                0.0
                            };
                            chunk[row + oy * ow + ox] = v;
                        }
                    }
                }
            }
        });
}

/// Scatters an im2col-shaped gradient matrix (`[C*k*k, outH*outW]`) back into
/// an input-shaped gradient (`[C, H, W]` for batch item `n` of `gx`),
/// accumulating overlapping contributions. The adjoint of [`im2col`].
pub fn col2im(cols_mat: &[f32], gx: &mut Tensor, n: usize, p: &Conv2dParams) {
    let (_, c_in, h, w) = gx.shape().nchw();
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    assert_eq!(cols_mat.len(), c_in * p.kernel * p.kernel * cols);

    for c in 0..c_in {
        for ki in 0..p.kernel {
            for kj in 0..p.kernel {
                let row = ((c * p.kernel + ki) * p.kernel + kj) * cols;
                for oy in 0..oh {
                    let iy = (oy * p.stride + ki * p.dilation) as isize - p.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * p.stride + kj * p.dilation) as isize - p.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        *gx.at4_mut(n, c, iy as usize, ix as usize) += cols_mat[row + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// Regular 2-D convolution.
///
/// * `x`: `[N, C_in, H, W]`
/// * `weight`: `[C_out, C_in, k, k]`
/// * `bias`: optional `[C_out]`
///
/// Returns `[N, C_out, outH, outW]`.
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, p: &Conv2dParams) -> Tensor {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, wc_in, kh, kw) = weight.shape().nchw();
    assert_eq!(
        c_in, wc_in,
        "conv2d channel mismatch: input {c_in}, weight {wc_in}"
    );
    assert_eq!(
        kh, p.kernel,
        "weight kernel {kh} != params kernel {}",
        p.kernel
    );
    assert_eq!(kh, kw, "only square kernels supported");
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    let krows = c_in * kh * kw;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let mut patch = vec![0.0f32; krows * cols];
    for ni in 0..n {
        im2col(x, ni, p, &mut patch);
        let dst = &mut out.data_mut()[ni * c_out * cols..(ni + 1) * c_out * cols];
        gemm(weight.data(), &patch, dst, c_out, krows, cols);
    }
    if let Some(b) = bias {
        assert_eq!(b.numel(), c_out, "bias length mismatch");
        add_channel_bias(&mut out, b);
    }
    out
}

/// Gradients of [`conv2d`] w.r.t. input, weight and bias.
///
/// Returns `(grad_x, grad_w, grad_b)` given upstream gradient `gy` of shape
/// `[N, C_out, outH, outW]`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    p: &Conv2dParams,
) -> (Tensor, Tensor, Tensor) {
    let (n, c_in, h, w) = x.shape().nchw();
    let (c_out, _, kh, kw) = weight.shape().nchw();
    let (oh, ow) = p.out_hw(h, w);
    let cols = oh * ow;
    let krows = c_in * kh * kw;

    let mut gx = Tensor::zeros(&[n, c_in, h, w]);
    let mut gw = Tensor::zeros(weight.dims());
    let mut gb = Tensor::zeros(&[c_out]);

    let mut patch = vec![0.0f32; krows * cols];
    let mut gpatch = vec![0.0f32; krows * cols];
    let mut gw_item = vec![0.0f32; c_out * krows];
    for ni in 0..n {
        let gy_item = &gy.data()[ni * c_out * cols..(ni + 1) * c_out * cols];

        // grad bias: sum of gy over spatial positions.
        for co in 0..c_out {
            gb.data_mut()[co] += gy_item[co * cols..(co + 1) * cols].iter().sum::<f32>();
        }

        // grad weight: gy (c_out×cols) * patch^T (cols×krows).
        im2col(x, ni, p, &mut patch);
        gemm_bt(gy_item, &patch, &mut gw_item, c_out, cols, krows);
        for (g, v) in gw.data_mut().iter_mut().zip(gw_item.iter()) {
            *g += v;
        }

        // grad input: W^T (krows×c_out) * gy (c_out×cols), scattered by col2im.
        gemm_at(weight.data(), gy_item, &mut gpatch, krows, c_out, cols);
        col2im(&gpatch, &mut gx, ni, p);
    }
    (gx, gw, gb)
}

/// Depthwise 2-D convolution: each input channel is convolved with its own
/// `k×k` filter. `weight` is `[C, 1, k, k]`; returns `[N, C, outH, outW]`.
pub fn depthwise_conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    p: &Conv2dParams,
) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let (wc, one, kh, kw) = weight.shape().nchw();
    assert_eq!(
        wc, c,
        "depthwise weight channels {wc} != input channels {c}"
    );
    assert_eq!(one, 1, "depthwise weight must be [C,1,k,k]");
    assert_eq!((kh, kw), (p.kernel, p.kernel));
    let (oh, ow) = p.out_hw(h, w);

    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let shape = x.shape().clone();
    let xd = x.data();
    let wd = weight.data();
    out.data_mut()
        .par_chunks_mut(oh * ow)
        .enumerate()
        .for_each(|(nc, dst)| {
            let (ni, ci) = (nc / c, nc % c);
            let wslice = &wd[ci * kh * kw..(ci + 1) * kh * kw];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ki in 0..kh {
                        let iy = (oy * p.stride + ki * p.dilation) as isize - p.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let ix = (ox * p.stride + kj * p.dilation) as isize - p.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += wslice[ki * kw + kj]
                                * xd[shape.offset4(ni, ci, iy as usize, ix as usize)];
                        }
                    }
                    dst[oy * ow + ox] = acc;
                }
            }
        });
    if let Some(b) = bias {
        add_channel_bias(&mut out, b);
    }
    out
}

/// Gradients of [`depthwise_conv2d`]: `(grad_x, grad_w, grad_b)`.
pub fn depthwise_conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    gy: &Tensor,
    p: &Conv2dParams,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    let (_, _, kh, kw) = weight.shape().nchw();
    let (oh, ow) = p.out_hw(h, w);

    let mut gx = Tensor::zeros(&[n, c, h, w]);
    let mut gw = Tensor::zeros(weight.dims());
    let mut gb = Tensor::zeros(&[c]);

    for ni in 0..n {
        for ci in 0..c {
            let wslice_base = ci * kh * kw;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gy.at4(ni, ci, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    gb.data_mut()[ci] += g;
                    for ki in 0..kh {
                        let iy = (oy * p.stride + ki * p.dilation) as isize - p.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kj in 0..kw {
                            let ix = (ox * p.stride + kj * p.dilation) as isize - p.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let xv = x.at4(ni, ci, iy as usize, ix as usize);
                            gw.data_mut()[wslice_base + ki * kw + kj] += g * xv;
                            *gx.at4_mut(ni, ci, iy as usize, ix as usize) +=
                                g * weight.data()[wslice_base + ki * kw + kj];
                        }
                    }
                }
            }
        }
    }
    (gx, gw, gb)
}

/// Adds a per-channel bias to an NCHW tensor in place.
pub fn add_channel_bias(x: &mut Tensor, bias: &Tensor) {
    let (n, c, h, w) = x.shape().nchw();
    assert_eq!(bias.numel(), c);
    let hw = h * w;
    for ni in 0..n {
        for ci in 0..c {
            let b = bias.data()[ci];
            let base = (ni * c + ci) * hw;
            for v in &mut x.data_mut()[base..base + hw] {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    /// Scalar reference conv for validating the im2col path.
    fn conv2d_naive(x: &Tensor, weight: &Tensor, p: &Conv2dParams) -> Tensor {
        let (n, c_in, h, w) = x.shape().nchw();
        let (c_out, _, k, _) = weight.shape().nchw();
        let (oh, ow) = p.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for ni in 0..n {
            for co in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c_in {
                            for ki in 0..k {
                                for kj in 0..k {
                                    let iy =
                                        (oy * p.stride + ki * p.dilation) as isize - p.pad as isize;
                                    let ix =
                                        (ox * p.stride + kj * p.dilation) as isize - p.pad as isize;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += weight.at4(co, ci, ki, kj)
                                            * x.at4(ni, ci, iy as usize, ix as usize);
                                    }
                                }
                            }
                        }
                        *out.at4_mut(ni, co, oy, ox) = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv2d_matches_naive_same() {
        let x = Tensor::randn(&[2, 3, 9, 7], 0.0, 1.0, 1);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.5, 2);
        let p = Conv2dParams::same(3);
        assert_close(
            &conv2d(&x, &w, None, &p),
            &conv2d_naive(&x, &w, &p),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn conv2d_matches_naive_strided_dilated() {
        let x = Tensor::randn(&[1, 2, 13, 11], 0.0, 1.0, 3);
        let w = Tensor::randn(&[5, 2, 3, 3], 0.0, 0.5, 4);
        let p = Conv2dParams {
            kernel: 3,
            stride: 2,
            pad: 2,
            dilation: 2,
        };
        assert_close(
            &conv2d(&x, &w, None, &p),
            &conv2d_naive(&x, &w, &p),
            1e-4,
            1e-4,
        );
    }

    #[test]
    fn conv2d_bias_applied_per_channel() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::zeros(&[2, 1, 3, 3]);
        let b = Tensor::from_vec(vec![1.5, -2.0], &[2]);
        let y = conv2d(&x, &w, Some(&b), &Conv2dParams::same(3));
        assert_eq!(y.at4(0, 0, 1, 1), 1.5);
        assert_eq!(y.at4(0, 1, 2, 2), -2.0);
    }

    #[test]
    fn downsample_halves_extent() {
        let x = Tensor::randn(&[1, 2, 16, 16], 0.0, 1.0, 5);
        let w = Tensor::randn(&[2, 2, 3, 3], 0.0, 0.5, 6);
        let y = conv2d(&x, &w, None, &Conv2dParams::downsample(3));
        assert_eq!(y.dims(), &[1, 2, 8, 8]);
    }

    #[test]
    fn depthwise_matches_grouped_naive() {
        let x = Tensor::randn(&[2, 4, 8, 8], 0.0, 1.0, 7);
        let w = Tensor::randn(&[4, 1, 3, 3], 0.0, 0.5, 8);
        let p = Conv2dParams::same(3);
        let y = depthwise_conv2d(&x, &w, None, &p);
        // Build equivalent full conv weight with zeros off the diagonal groups.
        let mut wf = Tensor::zeros(&[4, 4, 3, 3]);
        for c in 0..4 {
            for ki in 0..3 {
                for kj in 0..3 {
                    *wf.at4_mut(c, c, ki, kj) = w.at4(c, 0, ki, kj);
                }
            }
        }
        assert_close(&y, &conv2d(&x, &wf, None, &p), 1e-4, 1e-4);
    }

    /// Central-difference check of conv2d_backward.
    #[test]
    fn conv2d_backward_matches_finite_difference() {
        let p = Conv2dParams::same(3);
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, 11);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.0, 0.5, 12);
        // Loss = sum(conv(x, w)); gy = ones.
        let y = conv2d(&x, &w, None, &p);
        let gy = Tensor::ones(y.dims());
        let (gx, gw, gb) = conv2d_backward(&x, &w, &gy, &p);
        assert_eq!(gb.numel(), 3);

        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 23, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd =
                (conv2d(&xp, &w, None, &p).sum() - conv2d(&xm, &w, None, &p).sum()) / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 2e-2,
                "gx[{idx}]: fd {fd} vs {}",
                gx.data()[idx]
            );
        }
        for &idx in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd =
                (conv2d(&x, &wp, None, &p).sum() - conv2d(&x, &wm, None, &p).sum()) / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 2e-2,
                "gw[{idx}]: fd {fd} vs {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn depthwise_backward_matches_finite_difference() {
        let p = Conv2dParams::downsample(3);
        let x = Tensor::randn(&[1, 3, 6, 6], 0.0, 1.0, 13);
        let w = Tensor::randn(&[3, 1, 3, 3], 0.0, 0.5, 14);
        let y = depthwise_conv2d(&x, &w, None, &p);
        let gy = Tensor::ones(y.dims());
        let (gx, gw, _) = depthwise_conv2d_backward(&x, &w, &gy, &p);

        let eps = 1e-2f32;
        for &idx in &[0usize, 13, 41, 100] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (depthwise_conv2d(&xp, &w, None, &p).sum()
                - depthwise_conv2d(&xm, &w, None, &p).sum())
                / (2.0 * eps);
            assert!(
                (fd - gx.data()[idx]).abs() < 2e-2,
                "gx[{idx}]: fd {fd} vs {}",
                gx.data()[idx]
            );
        }
        for idx in [0usize, 8, 20] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let fd = (depthwise_conv2d(&x, &wp, None, &p).sum()
                - depthwise_conv2d(&x, &wm, None, &p).sum())
                / (2.0 * eps);
            assert!(
                (fd - gw.data()[idx]).abs() < 2e-2,
                "gw[{idx}]: fd {fd} vs {}",
                gw.data()[idx]
            );
        }
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let p = Conv2dParams {
            kernel: 3,
            stride: 2,
            pad: 1,
            dilation: 1,
        };
        let x = Tensor::randn(&[1, 2, 7, 7], 0.0, 1.0, 15);
        let (oh, ow) = p.out_hw(7, 7);
        let rows = 2 * 9 * oh * ow;
        let mut cols = vec![0.0f32; rows];
        im2col(&x, 0, &p, &mut cols);
        let y: Vec<f32> = (0..rows).map(|i| ((i * 31) % 11) as f32 - 5.0).collect();
        let lhs: f32 = cols.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
        let mut gx = Tensor::zeros(&[1, 2, 7, 7]);
        col2im(&y, &mut gx, 0, &p);
        let rhs: f32 = gx
            .data()
            .iter()
            .zip(x.data().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
