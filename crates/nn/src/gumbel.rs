//! Gumbel-Softmax sampling utilities (paper Eq. 5).
//!
//! The paper writes `ε ~ U(0,1)` for the exploration perturbation; the
//! canonical categorical-reparameterization form (Jang et al., which the
//! paper cites) draws Gumbel noise `g = −ln(−ln u)`, `u ~ U(0,1)`. We follow
//! the canonical form and expose the plain-uniform variant for completeness.

use defcon_support::rng::Rng;

/// One Gumbel(0, 1) sample.
pub fn sample_gumbel<R: Rng>(rng: &mut R) -> f32 {
    let u: f32 = rng.gen_range(f32::EPSILON..1.0);
    -(-u.ln()).ln()
}

/// A vector of `n` U(0,1) samples (the paper's literal `ε ~ U(0,1)`).
pub fn uniform_noise<R: Rng>(rng: &mut R, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// Exponential temperature annealing `τ(e) = τ₀ · r^e`, clamped below at
/// `τ_min`. High early temperatures explore; low late temperatures commit.
#[derive(Clone, Copy, Debug)]
pub struct TemperatureSchedule {
    /// Initial temperature.
    pub tau0: f32,
    /// Per-epoch decay ratio (`< 1`).
    pub decay: f32,
    /// Floor.
    pub tau_min: f32,
}

impl TemperatureSchedule {
    /// A schedule commonly used for differentiable NAS: 5.0 → 0.5.
    pub fn standard() -> Self {
        TemperatureSchedule {
            tau0: 5.0,
            decay: 0.9,
            tau_min: 0.5,
        }
    }

    /// Temperature at `epoch`.
    pub fn at(&self, epoch: usize) -> f32 {
        (self.tau0 * self.decay.powi(epoch as i32)).max(self.tau_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_support::rng::{SeedableRng, StdRng};

    #[test]
    fn gumbel_mean_near_euler_gamma() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mean: f32 = (0..n).map(|_| sample_gumbel(&mut rng)).sum::<f32>() / n as f32;
        // E[Gumbel(0,1)] = γ ≈ 0.5772
        assert!((mean - 0.5772).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn temperature_monotone_decreasing_to_floor() {
        let s = TemperatureSchedule::standard();
        assert!(s.at(0) > s.at(5));
        assert!(s.at(1000) >= s.tau_min);
        assert_eq!(s.at(1000), s.tau_min);
    }

    #[test]
    fn uniform_noise_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        for v in uniform_noise(&mut rng, 100) {
            assert!((0.0..1.0).contains(&v));
        }
    }
}
