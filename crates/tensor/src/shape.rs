//! Shape bookkeeping: dimension vectors, strides and NCHW helpers.

/// A tensor shape: a list of dimension extents, outermost first.
///
/// Shapes are value types — cheap to clone, compared structurally.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Builds a shape from a dimension slice. Empty slices denote scalars.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// The dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Interprets the shape as `[N, C, H, W]`. Panics unless rank == 4.
    pub fn nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(
            self.rank(),
            4,
            "expected NCHW tensor, got rank {}",
            self.rank()
        );
        (self.0[0], self.0[1], self.0[2], self.0[3])
    }

    /// Flat row-major offset of a 4-D index into this shape.
    #[inline]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.rank(), 4);
        ((n * self.0[1] + c) * self.0[2] + h) * self.0[3] + w
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Output spatial extent of a convolution/pooling window along one axis.
///
/// `floor((input + 2*pad - dilation*(kernel-1) - 1) / stride) + 1`, the same
/// formula PyTorch documents for `Conv2d`.
#[inline]
pub fn conv_out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    dilation: usize,
) -> usize {
    let eff = dilation * (kernel - 1) + 1;
    debug_assert!(input + 2 * pad >= eff, "window larger than padded input");
    (input + 2 * pad - eff) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4, 5]);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
        assert_eq!(s.numel(), 120);
    }

    #[test]
    fn offset4_matches_strides() {
        let s = Shape::new(&[2, 3, 4, 5]);
        let st = s.strides();
        assert_eq!(
            s.offset4(1, 2, 3, 4),
            st[0] + 2 * st[1] + 3 * st[2] + 4 * st[3]
        );
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn conv_out_dim_same_padding() {
        // 3x3 kernel, stride 1, pad 1 keeps spatial extent.
        assert_eq!(conv_out_dim(17, 3, 1, 1, 1), 17);
        // stride-2 downsampling halves (rounding as PyTorch does).
        assert_eq!(conv_out_dim(138, 3, 2, 1, 1), 69);
        assert_eq!(conv_out_dim(69, 3, 2, 1, 1), 35);
        assert_eq!(conv_out_dim(35, 3, 2, 1, 1), 18);
    }

    #[test]
    fn conv_out_dim_dilation() {
        // dilation-2 3x3 has effective extent 5.
        assert_eq!(conv_out_dim(10, 3, 1, 2, 2), 10);
        assert_eq!(conv_out_dim(10, 3, 1, 0, 2), 6);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[1, 2]).to_string(), "[1, 2]");
    }
}
