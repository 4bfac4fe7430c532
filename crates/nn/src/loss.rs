//! Loss functions, each recorded as a differentiable tape op.

use crate::graph::{Tape, Var};
use crate::ops;
use defcon_tensor::Tensor;

/// Mean squared error against a constant target.
pub fn mse(t: &mut Tape, pred: Var, target: &Tensor) -> Var {
    let tv = t.input(target.clone());
    let d = ops::sub(t, pred, tv);
    let s = ops::square(t, d);
    ops::mean_all(t, s)
}

/// L2 penalty `coef · mean(x²)` — used for *regularized training* of offsets
/// (paper Table V: an alternative to hard bounding).
pub fn l2_penalty(t: &mut Tape, x: Var, coef: f32) -> Var {
    let s = ops::square(t, x);
    let m = ops::mean_all(t, s);
    ops::scale(t, m, coef)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_penalty_scales() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(vec![2.0, -2.0], &[2]));
        let l = l2_penalty(&mut t, x, 0.5);
        assert!((t.value(l).data()[0] - 2.0).abs() < 1e-6);
    }
}
