//! Deterministic retry scheduling: seeded exponential backoff + jitter in
//! **virtual time**.
//!
//! Production retry loops pace themselves with wall-clock sleeps; this
//! workspace's determinism contract forbids that — two runs with the same
//! seed must agree byte for byte. So a backoff here is a *virtual-cycle
//! charge*: a pure function of `(policy, attempt)` that the serving layer
//! subtracts from a request's deadline budget instead of sleeping. The
//! shape is the classic capped exponential with jitter:
//!
//! ```text
//! envelope(n) = min(cap, base · 2ⁿ)
//! backoff(n)  = min(cap, envelope(n) ± jitter)   jitter ≤ envelope·f
//! ```
//!
//! where the jitter draw is a splitmix64 hash of `(seed, attempt)` —
//! identical across runs, threads and machines. With a jitter fraction
//! `f ≤ 1/3` the schedule is monotone non-decreasing below the cap
//! (`2e(1−f) ≥ e(1+f)` ⇔ `f ≤ 1/3`), which the property suite pins.
//!
//! Everything here is integer arithmetic on the stack: computing a
//! schedule allocates nothing (pinned by an allocation-counting test), so
//! the disarmed/fast path of a serving loop pays only the arithmetic.

use crate::rng::splitmix64;

/// A deterministic retry policy. All fields are plain integers so the
/// schedule is exactly reproducible (no float rounding, no clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the initial try (0 = fail fast). The serving
    /// default of 1 reproduces the original single drain-retry loop.
    pub max_retries: u32,
    /// Backoff envelope for attempt 0, in virtual cycles.
    pub base_cycles: u64,
    /// Hard ceiling on any single backoff, in virtual cycles.
    pub cap_cycles: u64,
    /// Jitter bound as a fraction of the envelope, in 1/1000 units
    /// (`250` = ±25 %). Values ≤ 333 keep the schedule monotone below
    /// the cap; see the module docs.
    pub jitter_milli: u32,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 1,
            base_cycles: 1 << 10,
            cap_cycles: 1 << 16,
            jitter_milli: 250,
            seed: 0xDEFC_0DE5,
        }
    }
}

impl RetryPolicy {
    /// The capped exponential envelope for `attempt` (0-based), before
    /// jitter: `min(cap, base · 2^attempt)`, saturating.
    pub fn envelope_cycles(&self, attempt: u32) -> u64 {
        let doubled = if attempt >= 63 {
            u64::MAX
        } else {
            self.base_cycles.checked_shl(attempt).unwrap_or(u64::MAX)
        };
        doubled.min(self.cap_cycles)
    }

    /// The virtual-cycle backoff charged before re-attempt `attempt`
    /// (0-based: the pause between the initial try and the first retry is
    /// `backoff_cycles(0)`). A pure function of `(self, attempt)`:
    /// envelope ± seeded jitter, clamped to `cap_cycles`.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let envelope = self.envelope_cycles(attempt);
        let span = envelope / 1000 * self.jitter_milli as u64
            + envelope % 1000 * self.jitter_milli as u64 / 1000;
        if span == 0 {
            return envelope;
        }
        let h = splitmix64(self.seed ^ (attempt as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        // Uniform in [-span, +span]: width 2·span+1 never overflows u64
        // because span ≤ envelope ≤ cap < u64::MAX/3 in any sane config,
        // and the modulo keeps the draw deterministic without floats.
        let delta = (h % (2 * span + 1)) as i128 - span as i128;
        let jittered = envelope as i128 + delta;
        (jittered.max(0) as u64).min(self.cap_cycles)
    }

    /// Total virtual cycles charged by backoffs for attempts `0..n`.
    pub fn total_backoff_cycles(&self, n: u32) -> u64 {
        (0..n).fold(0u64, |acc, a| acc.saturating_add(self.backoff_cycles(a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_seed_and_attempt() {
        let p = RetryPolicy::default();
        for attempt in 0..12 {
            assert_eq!(
                p.backoff_cycles(attempt),
                p.backoff_cycles(attempt),
                "attempt {attempt} not reproducible"
            );
        }
        // Different seeds give different schedules (somewhere in the run).
        let q = RetryPolicy {
            seed: p.seed ^ 0xdead_beef,
            ..p
        };
        assert!(
            (0..12).any(|a| p.backoff_cycles(a) != q.backoff_cycles(a)),
            "seed does not influence the schedule"
        );
    }

    #[test]
    fn prop_monotone_up_to_cap_and_jitter_bounded() {
        use crate::prop::{self, Config};
        use crate::rng::Rng;

        prop::check(
            "backoff monotone below cap, jitter within the configured fraction",
            &Config::cases(64),
            |rng| RetryPolicy {
                max_retries: 8,
                base_cycles: rng.gen_range(1u64..10_000),
                cap_cycles: rng.gen_range(10_000u64..10_000_000),
                // ≤ 1/3 keeps the schedule monotone (module docs).
                jitter_milli: rng.gen_range(0u32..334),
                seed: rng.gen_range(0u64..u64::MAX),
            },
            |p| {
                let mut prev = 0u64;
                for attempt in 0..24u32 {
                    let env = p.envelope_cycles(attempt);
                    let b = p.backoff_cycles(attempt);
                    // Jitter bound: |b − envelope| ≤ envelope·f (the cap
                    // clamp can only pull b further toward the envelope).
                    let span = env / 1000 * p.jitter_milli as u64
                        + env % 1000 * p.jitter_milli as u64 / 1000;
                    crate::prop_assert!(
                        b >= env.saturating_sub(span) && b <= env.saturating_add(span),
                        "attempt {attempt}: backoff {b} outside envelope {env} ± {span}"
                    );
                    crate::prop_assert!(b <= p.cap_cycles, "attempt {attempt}: {b} above cap");
                    // Monotone while the envelope is still below the cap.
                    if env < p.cap_cycles {
                        crate::prop_assert!(
                            b >= prev,
                            "attempt {attempt}: schedule regressed {prev} -> {b}"
                        );
                    }
                    prev = b;
                }
                Ok(())
            },
        );
    }

    #[test]
    fn envelope_saturates_instead_of_overflowing() {
        let p = RetryPolicy {
            base_cycles: u64::MAX / 2,
            cap_cycles: u64::MAX,
            jitter_milli: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.envelope_cycles(63), u64::MAX);
        assert_eq!(p.envelope_cycles(200), u64::MAX);
        // And the cap still applies on the saturated path.
        let q = RetryPolicy {
            cap_cycles: 12_345,
            ..p
        };
        assert_eq!(q.backoff_cycles(120), 12_345);
    }

    #[test]
    fn zero_jitter_is_exactly_the_envelope() {
        let p = RetryPolicy {
            base_cycles: 100,
            cap_cycles: 1000,
            jitter_milli: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_cycles(0), 100);
        assert_eq!(p.backoff_cycles(1), 200);
        assert_eq!(p.backoff_cycles(2), 400);
        assert_eq!(p.backoff_cycles(3), 800);
        assert_eq!(p.backoff_cycles(4), 1000, "capped");
        assert_eq!(p.backoff_cycles(5), 1000, "stays capped");
        assert_eq!(p.total_backoff_cycles(5), 100 + 200 + 400 + 800 + 1000);
    }

    // The allocation-free contract (pure integer math, no heap) is pinned
    // in `tests/zero_alloc.rs`, which installs the counting allocator —
    // an in-crate test could not observe allocations at all.
}
