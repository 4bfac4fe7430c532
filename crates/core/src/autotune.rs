//! Tile-size autotuning (paper Fig. 8).
//!
//! The paper tunes the thread-block tile of the texture kernels offline
//! with ytopt, a Bayesian-optimization autotuner. This module implements
//! the same algorithm class from scratch: a Gaussian-process surrogate
//! (RBF kernel, Cholesky solve) with the expected-improvement acquisition
//! over the discrete tile space, plus random- and exhaustive-search
//! baselines for comparison.

use defcon_kernels::TileConfig;
use defcon_support::error::DefconError;
use defcon_support::fault;
use defcon_support::json::Json;
use defcon_support::obs;
use defcon_support::par;
use defcon_support::rng::{SeedableRng, SliceRandom, StdRng};

/// How the tuner explores the space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Gaussian-process Bayesian optimization with expected improvement.
    Bayesian,
    /// Uniform random sampling without replacement.
    Random,
    /// Evaluate every candidate (ground truth; costs the full space).
    Exhaustive,
}

/// Tuning outcome.
#[derive(Clone, Debug)]
pub struct AutotuneResult {
    /// Best tile found.
    pub best: TileConfig,
    /// Objective value (milliseconds) at the best tile.
    pub best_value: f64,
    /// Every evaluated `(tile, value)` pair, in evaluation order.
    pub evaluations: Vec<(TileConfig, f64)>,
    /// Strategy used.
    pub strategy: Strategy,
}

/// The autotuner.
pub struct Autotuner {
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Evaluation budget (ignored for exhaustive).
    pub budget: usize,
    /// RNG seed (initial design and random baseline).
    pub seed: u64,
}

impl Autotuner {
    /// A Bayesian tuner with the given budget.
    pub fn bayesian(budget: usize, seed: u64) -> Self {
        Autotuner {
            strategy: Strategy::Bayesian,
            budget,
            seed,
        }
    }

    /// Minimizes `objective` over `space`.
    ///
    /// The exhaustive strategy evaluates candidates in parallel (worker
    /// count from `DEFCON_THREADS`, else all cores); the evaluation list
    /// stays in space order and each candidate is evaluated exactly once,
    /// so the result is identical to the sequential sweep for any thread
    /// count. Bayesian and random search stay sequential — each of their
    /// evaluations depends on the previous ones.
    pub fn run(
        &self,
        space: &[TileConfig],
        objective: impl Fn(TileConfig) -> f64 + Sync,
    ) -> AutotuneResult {
        assert!(!space.is_empty(), "empty search space");
        let run_span = obs::span_with("autotune.run", || {
            vec![
                ("strategy", Json::str(format!("{:?}", self.strategy))),
                ("budget", Json::from(self.budget)),
                ("space", Json::from(space.len())),
            ]
        });
        let evaluations = match self.strategy {
            Strategy::Exhaustive => {
                let vals = par::map(space, par::max_threads(), |&t| objective(t));
                space.iter().copied().zip(vals).collect()
            }
            Strategy::Random => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut order: Vec<TileConfig> = space.to_vec();
                order.shuffle(&mut rng);
                order
                    .into_iter()
                    .take(self.budget.min(space.len()))
                    .map(|t| (t, objective(t)))
                    .collect()
            }
            Strategy::Bayesian => self.run_bayesian(space, &objective),
        };
        let (best, best_value) = evaluations
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one evaluation");
        run_span.record("evaluations", Json::from(evaluations.len()));
        run_span.record("best_value", Json::from(best_value));
        AutotuneResult {
            best,
            best_value,
            evaluations,
            strategy: self.strategy,
        }
    }

    fn run_bayesian(
        &self,
        space: &[TileConfig],
        objective: &impl Fn(TileConfig) -> f64,
    ) -> Vec<(TileConfig, f64)> {
        let budget = self.budget.min(space.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut remaining: Vec<TileConfig> = space.to_vec();
        remaining.shuffle(&mut rng);
        let mut evals: Vec<(TileConfig, f64)> = Vec::with_capacity(budget);

        // Initial design: 3 random points (or the budget if smaller).
        let init = 3.min(budget);
        for _ in 0..init {
            let t = remaining.pop().expect("space exhausted during init");
            evals.push((t, objective(t)));
        }

        while evals.len() < budget && !remaining.is_empty() {
            let xs: Vec<[f64; 2]> = evals.iter().map(|(t, _)| features(*t)).collect();
            let ys: Vec<f64> = evals.iter().map(|(_, v)| v).copied().collect();
            let gp = match Gp::fit(&xs, &ys) {
                Ok(gp) => gp,
                Err(_) => {
                    // Graceful degradation: the surrogate is unfittable even
                    // with jitter (degenerate evaluations, duplicate tiles).
                    // Spend the remaining budget as seeded random search —
                    // `remaining` is already seed-shuffled, so the fallback
                    // is as deterministic as the happy path.
                    obs::event_with("autotune.gp_fallback", || {
                        vec![
                            ("evaluated", Json::from(evals.len())),
                            ("budget", Json::from(budget)),
                        ]
                    });
                    while evals.len() < budget {
                        let Some(t) = remaining.pop() else { break };
                        evals.push((t, objective(t)));
                    }
                    break;
                }
            };
            let best_y = ys.iter().copied().fold(f64::INFINITY, f64::min);
            // Pick the remaining candidate with maximal expected improvement.
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let (mu, var) = gp.predict(features(t));
                    (i, expected_improvement(mu, var.max(1e-12).sqrt(), best_y))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty remaining set");
            let t = remaining.swap_remove(idx);
            evals.push((t, objective(t)));
        }
        evals
    }
}

/// Tile features: log2 extents (the space is geometric).
fn features(t: TileConfig) -> [f64; 2] {
    [(t.h as f64).log2(), (t.w as f64).log2()]
}

/// Expected improvement for minimization.
fn expected_improvement(mu: f64, sigma: f64, best: f64) -> f64 {
    if sigma <= 0.0 {
        return (best - mu).max(0.0);
    }
    let z = (best - mu) / sigma;
    (best - mu) * normal_cdf(z) + sigma * normal_pdf(z)
}

fn normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Abramowitz–Stegun 7.1.26 rational approximation of Φ via erf.
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// A small exact Gaussian process (RBF kernel + observation noise) for the
/// handful of points the tuner evaluates.
#[derive(Debug)]
struct Gp {
    xs: Vec<[f64; 2]>,
    alpha: Vec<f64>,
    chol: Vec<f64>,
    n: usize,
    y_mean: f64,
    y_std: f64,
    length_scale: f64,
}

impl Gp {
    /// Fits the GP, retrying a failed Cholesky with escalating diagonal
    /// jitter (1e-3, 1e-2, 1e-1 on top of the base 1e-4 noise). The first
    /// attempt is bit-identical to the pre-jitter implementation, so the
    /// happy path reproduces historical tuning traces exactly. When even
    /// the largest jitter cannot make the kernel matrix positive definite,
    /// the error is [`DefconError::RetriesExhausted`] and the caller falls
    /// back to random search.
    fn fit(xs: &[[f64; 2]], ys: &[f64]) -> Result<Gp, DefconError> {
        let n = xs.len();
        assert!(n > 0 && n == ys.len());
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let y_var = ys.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-9);
        let ysn: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();
        let length_scale = 1.0; // one octave in log2 tile space

        const JITTERS: [f64; 4] = [0.0, 1e-3, 1e-2, 1e-1];
        for jitter in JITTERS {
            let noise = 1e-4 + jitter;
            // K + noise·I, then Cholesky.
            let mut k = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..n {
                    k[i * n + j] = rbf(xs[i], xs[j], length_scale);
                }
                k[i * n + i] += noise;
            }
            let Ok(chol) = cholesky(&k, n) else { continue };
            let alpha = chol_solve(&chol, n, &ysn);
            return Ok(Gp {
                xs: xs.to_vec(),
                alpha,
                chol,
                n,
                y_mean,
                y_std,
                length_scale,
            });
        }
        Err(DefconError::RetriesExhausted {
            what: "GP Cholesky with escalating jitter".to_string(),
            attempts: JITTERS.len(),
        })
    }

    /// Posterior mean and variance at `x` (in original y units).
    fn predict(&self, x: [f64; 2]) -> (f64, f64) {
        let kstar: Vec<f64> = self
            .xs
            .iter()
            .map(|&xi| rbf(xi, x, self.length_scale))
            .collect();
        let mu_n: f64 = kstar
            .iter()
            .zip(self.alpha.iter())
            .map(|(a, b)| a * b)
            .sum();
        // v = L⁻¹ k*; var = k(x,x) − vᵀv
        let v = forward_sub(&self.chol, self.n, &kstar);
        let var_n = (1.0 - v.iter().map(|z| z * z).sum::<f64>()).max(0.0);
        (
            mu_n * self.y_std + self.y_mean,
            var_n * self.y_std * self.y_std,
        )
    }
}

fn rbf(a: [f64; 2], b: [f64; 2], l: f64) -> f64 {
    let d2 = (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2);
    (-d2 / (2.0 * l * l)).exp()
}

/// Dense lower-triangular Cholesky of a positive-definite matrix. A
/// non-positive pivot (the matrix is singular or indefinite — e.g. the
/// kernel matrix of duplicate sampled tiles) is a typed
/// [`DefconError::NotPositiveDefinite`], not a panic or a NaN factor.
///
/// Fault point `autotune.cholesky` injects a pivot failure for
/// degradation tests (jitter escalation, random-search fallback).
fn cholesky(k: &[f64], n: usize) -> Result<Vec<f64>, DefconError> {
    if fault::fires("autotune.cholesky") {
        return Err(DefconError::NotPositiveDefinite {
            pivot: 0,
            value: f64::NEG_INFINITY, // sentinel: injected, not computed
        });
    }
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = k[i * n + j];
            for m in 0..j {
                s -= l[i * n + m] * l[j * n + m];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(DefconError::NotPositiveDefinite { pivot: i, value: s });
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    Ok(l)
}

/// Solves `L y = b` (forward substitution).
fn forward_sub(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[i * n + j] * y[j];
        }
        y[i] = s / l[i * n + i];
    }
    y
}

/// Solves `(L Lᵀ) x = b`.
fn chol_solve(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let y = forward_sub(l, n, b);
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in i + 1..n {
            s -= l[j * n + i] * x[j];
        }
        x[i] = s / l[i * n + i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic objective with a unique optimum at 8×32.
    fn bowl(t: TileConfig) -> f64 {
        let f = features(t);
        (f[0] - 3.0).powi(2) + (f[1] - 5.0).powi(2) + 1.0
    }

    #[test]
    fn exhaustive_finds_global_optimum() {
        let space = TileConfig::search_space();
        let tuner = Autotuner {
            strategy: Strategy::Exhaustive,
            budget: 0,
            seed: 0,
        };
        let r = tuner.run(&space, bowl);
        assert_eq!(r.best, TileConfig { h: 8, w: 32 });
        assert_eq!(r.evaluations.len(), space.len());
    }

    #[test]
    fn bayesian_matches_exhaustive_with_half_budget() {
        let _quiet = fault::quiesce();
        let space = TileConfig::search_space();
        let tuner = Autotuner::bayesian(space.len() / 2, 7);
        let r = tuner.run(&space, bowl);
        assert_eq!(r.best, TileConfig { h: 8, w: 32 }, "BO missed the optimum");
        assert!(r.evaluations.len() <= space.len() / 2);
    }

    #[test]
    fn bayesian_beats_or_matches_random_on_average() {
        let _quiet = fault::quiesce();
        let space = TileConfig::search_space();
        let budget = 8;
        let mut bo_total = 0.0;
        let mut rnd_total = 0.0;
        for seed in 0..10u64 {
            bo_total += Autotuner::bayesian(budget, seed)
                .run(&space, bowl)
                .best_value;
            rnd_total += Autotuner {
                strategy: Strategy::Random,
                budget,
                seed,
            }
            .run(&space, bowl)
            .best_value;
        }
        assert!(
            bo_total <= rnd_total + 1e-9,
            "BO {bo_total} vs random {rnd_total}"
        );
    }

    #[test]
    fn gp_interpolates_training_points() {
        let _quiet = fault::quiesce();
        let xs = vec![[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]];
        let ys = vec![1.0, 2.0, 3.0, 0.5];
        let gp = Gp::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            let (mu, var) = gp.predict(*x);
            assert!((mu - y).abs() < 0.05, "GP mean {mu} vs observed {y}");
            assert!(
                var < 0.05,
                "posterior variance at a training point should collapse: {var}"
            );
        }
    }

    #[test]
    fn gp_uncertainty_grows_away_from_data() {
        let _quiet = fault::quiesce();
        let xs = vec![[0.0, 0.0], [1.0, 1.0]];
        let ys = vec![1.0, 2.0];
        let gp = Gp::fit(&xs, &ys).unwrap();
        let (_, var_near) = gp.predict([0.1, 0.1]);
        let (_, var_far) = gp.predict([6.0, 6.0]);
        assert!(var_far > var_near);
    }

    #[test]
    fn cholesky_rejects_degenerate_kernel_matrices() {
        let _quiet = fault::quiesce();
        // Singular: the kernel matrix of two duplicate sampled tiles
        // (identical rows) — the case that used to panic mid-tuning.
        let dup = [1.0, 1.0, 1.0, 1.0];
        let err = cholesky(&dup, 2).unwrap_err();
        assert!(matches!(
            err,
            DefconError::NotPositiveDefinite { pivot: 1, .. }
        ));
        assert!(err.is_degradable());
        // Indefinite.
        let indef = [1.0, 2.0, 2.0, 1.0];
        assert!(cholesky(&indef, 2).is_err());
        // Well-conditioned still factors.
        let ok = cholesky(&[4.0, 2.0, 2.0, 3.0], 2).unwrap();
        assert!((ok[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gp_fit_recovers_from_transient_cholesky_failure_via_jitter() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let xs = vec![[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]];
        let ys = vec![1.0, 2.0, 3.0];
        // First factorization attempt fails (injected); the 1e-3-jitter
        // retry succeeds and the fit still interpolates.
        let _g = fault::arm(FaultPlan::new(13).point("autotune.cholesky", Schedule::Nth(0)));
        let gp = Gp::fit(&xs, &ys).unwrap();
        assert_eq!(fault::log(), vec!["autotune.cholesky#0"]);
        for (x, y) in xs.iter().zip(ys.iter()) {
            let (mu, _) = gp.predict(*x);
            assert!((mu - y).abs() < 0.1, "jittered GP mean {mu} vs {y}");
        }
    }

    #[test]
    fn gp_fit_exhausts_jitter_into_typed_error() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let _g = fault::arm(FaultPlan::new(13).point("autotune.cholesky", Schedule::Always));
        let err = Gp::fit(&[[0.0, 0.0]], &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            DefconError::RetriesExhausted { attempts: 4, .. }
        ));
    }

    #[test]
    fn bayesian_degrades_to_random_search_when_gp_unfittable() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let space = TileConfig::search_space();
        let budget = 8;
        let run = || {
            let _g = fault::arm(FaultPlan::new(5).point("autotune.cholesky", Schedule::Always));
            Autotuner::bayesian(budget, 3).run(&space, bowl)
        };
        let r = run();
        // The full budget is still spent and a best is produced.
        assert_eq!(r.evaluations.len(), budget);
        assert!(r.best_value.is_finite());
        // The fallback is deterministic: same seed, same evaluations.
        let r2 = run();
        let evals = |r: &AutotuneResult| r.evaluations.clone();
        assert_eq!(evals(&r), evals(&r2));
    }

    #[test]
    fn bayesian_survives_constant_objective() {
        let _quiet = fault::quiesce();
        // A constant objective makes every y identical (zero variance) —
        // the GP must either fit it or degrade, never panic.
        let space = TileConfig::search_space();
        let r = Autotuner::bayesian(6, 11).run(&space, |_| 2.5);
        assert_eq!(r.evaluations.len(), 6);
        assert_eq!(r.best_value, 2.5);
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ei_zero_when_certainly_worse() {
        // mu far above best, sigma tiny → no improvement expected.
        assert!(expected_improvement(10.0, 1e-9, 1.0) < 1e-9);
        // mu below best with certainty → improvement = best - mu.
        assert!((expected_improvement(0.5, 0.0, 1.0) - 0.5).abs() < 1e-12);
    }
}
