//! Pooling and resampling ops used by the backbones and the FPN neck.

use crate::Tensor;

/// Global average pooling `[N, C, H, W] -> [N, C]`.
pub fn global_avg_pool(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let hw = (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c]);
    for ni in 0..n {
        for ci in 0..c {
            let base = x.shape().offset4(ni, ci, 0, 0);
            out.data_mut()[ni * c + ci] = x.data()[base..base + h * w].iter().sum::<f32>() / hw;
        }
    }
    out
}

/// Backward of [`global_avg_pool`].
pub fn global_avg_pool_backward(gy: &Tensor, input_dims: &[usize]) -> Tensor {
    let mut gx = Tensor::zeros(input_dims);
    let (n, c, h, w) = gx.shape().nchw();
    let inv = 1.0 / (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let g = gy.data()[ni * c + ci] * inv;
            let base = gx.shape().offset4(ni, ci, 0, 0);
            for v in &mut gx.data_mut()[base..base + h * w] {
                *v += g;
            }
        }
    }
    gx
}

/// Nearest-neighbour 2× upsampling, used by the FPN top-down pathway.
pub fn upsample_nearest_2x(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape().nchw();
    let mut out = Tensor::zeros(&[n, c, h * 2, w * 2]);
    for ni in 0..n {
        for ci in 0..c {
            for y in 0..h * 2 {
                for xx in 0..w * 2 {
                    *out.at4_mut(ni, ci, y, xx) = x.at4(ni, ci, y / 2, xx / 2);
                }
            }
        }
    }
    out
}

/// Backward of [`upsample_nearest_2x`]: each input pixel accumulates its 4
/// replicated outputs.
pub fn upsample_nearest_2x_backward(gy: &Tensor) -> Tensor {
    let (n, c, h2, w2) = gy.shape().nchw();
    let (h, w) = (h2 / 2, w2 / 2);
    let mut gx = Tensor::zeros(&[n, c, h, w]);
    for ni in 0..n {
        for ci in 0..c {
            for y in 0..h2 {
                for xx in 0..w2 {
                    *gx.at4_mut(ni, ci, y / 2, xx / 2) += gy.at4(ni, ci, y, xx);
                }
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_averages() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]);
        let y = global_avg_pool(&x);
        assert_eq!(y.data(), &[4.0]);
        let gy = Tensor::from_vec(vec![8.0], &[1, 1]);
        let gx = global_avg_pool_backward(&gy, &[1, 1, 2, 2]);
        assert_eq!(gx.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn upsample_round_trip_gradient() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = upsample_nearest_2x(&x);
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.at4(0, 0, 0, 1), 1.0);
        assert_eq!(y.at4(0, 0, 3, 3), 4.0);
        let gx = upsample_nearest_2x_backward(&Tensor::ones(&[1, 1, 4, 4]));
        assert_eq!(gx.data(), &[4.0, 4.0, 4.0, 4.0]);
    }
}
