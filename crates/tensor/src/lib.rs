//! # defcon-tensor
//!
//! Dense `f32` tensors and the CPU numeric kernels that back the DEFCON
//! reproduction: im2col convolution over a `support::par`-parallel GEMM,
//! depthwise convolution, pooling, batch normalization,
//! bilinear sampling, and the deformable-convolution reference: one
//! forward for every operator family (DCNv1, the mask-modulated DCNv2,
//! the softmax-aggregated DCNv3), chosen by its per-tap
//! [`sample::Modulation`], and one backward for the two that train.
//!
//! The crate is deliberately small and NCHW-only. It is the numeric ground
//! truth that the GPU-simulator kernels in `defcon-kernels` are validated
//! against, and the storage layer under the autograd tape in `defcon-nn`.
//!
//! ## Layout
//!
//! All image tensors are `[N, C, H, W]` (batch, channel, height, width),
//! row-major, with `W` fastest. Matrices are `[R, C]`. The [`Tensor`] type is
//! rank-generic (dims held in a `Vec<usize>`) but every op documents and
//! checks the rank it expects.
//!
//! ## Example
//!
//! ```
//! use defcon_tensor::{Tensor, conv::{conv2d, Conv2dParams}};
//!
//! let x = Tensor::randn(&[1, 3, 8, 8], 0.0, 1.0, 42);
//! let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.1, 43);
//! let y = conv2d(&x, &w, None, &Conv2dParams::same(3));
//! assert_eq!(y.dims(), &[1, 4, 8, 8]);
//! ```

pub mod conv;
pub mod gemm;
pub mod init;
pub mod norm;
pub mod pool;
pub mod sample;
pub mod shape;
pub mod tensor;

pub use sample::{
    deform_conv2d_backward_ref, deform_conv2d_ref, sigmoid, tap_softmax, DeformConv2dParams,
    Modulation,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used by the crate's own tests when comparing two
/// floating-point kernels that should be algorithmically equal but may differ
/// by accumulation order.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts two tensors have the same dims and element-wise agree within
/// `atol + rtol * |b|`. Panics with a diagnostic including the first
/// offending index.
pub fn assert_close(a: &Tensor, b: &Tensor, atol: f32, rtol: f32) {
    assert_eq!(
        a.dims(),
        b.dims(),
        "shape mismatch: {:?} vs {:?}",
        a.dims(),
        b.dims()
    );
    for (i, (&x, &y)) in a.data().iter().zip(b.data().iter()).enumerate() {
        let tol = atol + rtol * y.abs();
        assert!(
            (x - y).abs() <= tol || (x.is_nan() && y.is_nan()),
            "tensors differ at flat index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_close_accepts_identical() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_close(&a, &a.clone(), 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "tensors differ")]
    fn assert_close_rejects_different() {
        let a = Tensor::from_vec(vec![1.0], &[1]);
        let b = Tensor::from_vec(vec![2.0], &[1]);
        assert_close(&a, &b, 1e-6, 0.0);
    }
}
