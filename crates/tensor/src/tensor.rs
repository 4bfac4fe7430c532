//! The dense `f32` tensor type.

use crate::shape::Shape;
use defcon_support::rng::{Rng, SeedableRng, StdRng};

/// A dense, row-major, `f32` tensor.
///
/// `Tensor` owns its storage (`Vec<f32>`). It is the unit of exchange between
/// every crate in the workspace: the autograd tape stores `Tensor`s in its
/// nodes, the simulator kernels read and write `Tensor`s, and the model zoo
/// moves activations around as `Tensor`s.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// A tensor of zeros with the given dims.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// A tensor of ones with the given dims.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![1.0; shape.numel()],
            shape,
        }
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Wraps an existing buffer. Panics if `data.len()` does not match the
    /// shape's element count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "buffer length {} != shape {} numel",
            data.len(),
            shape
        );
        Tensor { data, shape }
    }

    /// Gaussian-initialized tensor (`mean`, `std`) from a seeded RNG, for
    /// reproducible tests and experiments.
    pub fn randn(dims: &[usize], mean: f32, std: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.numel())
            .map(|_| mean + std * sample_standard_normal(&mut rng))
            .collect();
        Tensor { data, shape }
    }

    /// Uniform-initialized tensor in `[lo, hi)` from a seeded RNG.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let shape = Shape::new(dims);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape }
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The shape object.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Read-only view of the backing buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access by 4-D index (NCHW tensors).
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset4(n, c, h, w)]
    }

    /// Mutable element access by 4-D index.
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let off = self.shape.offset4(n, c, h, w);
        &mut self.data[off]
    }

    /// Returns a tensor with the same data but a new shape of equal numel.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape {} -> {} changes element count",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Elementwise binary op; shapes must match exactly.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.dims(), other.dims(), "zip shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// `self + other`, elementwise.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`, elementwise.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// `self * other`, elementwise (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Extracts one batch item `[1, C, H, W]` from an NCHW tensor.
    pub fn slice_batch(&self, n: usize) -> Tensor {
        let (nn, c, h, w) = self.shape.nchw();
        assert!(n < nn, "batch index {n} out of range {nn}");
        let stride = c * h * w;
        Tensor::from_vec(
            self.data[n * stride..(n + 1) * stride].to_vec(),
            &[1, c, h, w],
        )
    }

    /// Concatenates NCHW tensors along the channel axis. All inputs must
    /// share N, H and W.
    pub fn cat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cat_channels needs at least one tensor");
        let (n, _, h, w) = parts[0].shape.nchw();
        let c_total: usize = parts
            .iter()
            .map(|p| {
                let (pn, pc, ph, pw) = p.shape.nchw();
                assert_eq!(
                    (pn, ph, pw),
                    (n, h, w),
                    "cat_channels non-channel dims must match"
                );
                pc
            })
            .sum();
        let mut out = Tensor::zeros(&[n, c_total, h, w]);
        for ni in 0..n {
            let mut c_off = 0usize;
            for p in parts {
                let pc = p.dims()[1];
                for c in 0..pc {
                    for hh in 0..h {
                        let src = p.shape.offset4(ni, c, hh, 0);
                        let dst = out.shape.offset4(ni, c_off + c, hh, 0);
                        out.data[dst..dst + w].copy_from_slice(&p.data[src..src + w]);
                    }
                }
                c_off += pc;
            }
        }
        out
    }
}

/// Draws one standard-normal sample via Box–Muller (avoids a dependency on
/// `rand_distr`).
pub fn sample_standard_normal<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        *t.at4_mut(1, 2, 3, 4) = 7.0;
        assert_eq!(t.at4(1, 2, 3, 4), 7.0);
        assert_eq!(t.numel(), 120);
        assert_eq!(t.sum(), 7.0);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[32], 0.0, 1.0, 7);
        let b = Tensor::randn(&[32], 0.0, 1.0, 7);
        let c = Tensor::randn(&[32], 0.0, 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_moments_roughly_correct() {
        let t = Tensor::randn(&[100_000], 2.0, 3.0, 1);
        assert!((t.mean() - 2.0).abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|v| (v - t.mean()).powi(2)).mean();
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "zip shape mismatch")]
    fn zip_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = a.add(&b);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
    }

    #[test]
    fn slice_batch_extracts_contiguous_item() {
        let t = Tensor::from_vec(
            (0..2 * 2 * 2 * 2).map(|v| v as f32).collect(),
            &[2, 2, 2, 2],
        );
        let b1 = t.slice_batch(1);
        assert_eq!(b1.dims(), &[1, 2, 2, 2]);
        assert_eq!(b1.data()[0], 8.0);
    }

    #[test]
    fn cat_channels_stacks() {
        let a = Tensor::full(&[1, 1, 2, 2], 1.0);
        let b = Tensor::full(&[1, 2, 2, 2], 2.0);
        let c = Tensor::cat_channels(&[&a, &b]);
        assert_eq!(c.dims(), &[1, 3, 2, 2]);
        assert_eq!(c.at4(0, 0, 0, 0), 1.0);
        assert_eq!(c.at4(0, 1, 1, 1), 2.0);
        assert_eq!(c.at4(0, 2, 0, 1), 2.0);
    }
}
