//! Seedable pseudo-random number generation.
//!
//! A drop-in replacement for the slice of the `rand` crate this workspace
//! uses: a seedable generator ([`StdRng`]), `gen_range` over float/integer
//! ranges, and Fisher–Yates [`SliceRandom::shuffle`]. The generator is
//! xoshiro256** seeded through SplitMix64 — deterministic across platforms
//! and Rust versions, which is what the reproduction needs (the statistical
//! quality bar here is "good enough for initialization, sampling and
//! property tests", not cryptography).
//!
//! The workspace's two stateless hashes live here too, once each:
//! [`splitmix64`] (seeding, retry jitter) and [`fnv1a64`] (cache keys,
//! report digests, fault-point names).

/// A source of raw 64-bit randomness.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed. Same seed ⇒ same stream, forever.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The workspace's default generator: xoshiro256**.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; the four state
/// words are initialized by iterating SplitMix64 on the seed so that
/// nearby seeds yield uncorrelated streams.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

/// The SplitMix64 increment (2⁶⁴ / φ).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a pure function: the output for state `z`,
/// i.e. the standard 64-bit finalizer applied to `z + 0x9E37_79B9_7F4A_7C15`.
/// Output `k` of a SplitMix64 stream seeded with `s` is
/// `splitmix64(s + k·0x9E37_79B9_7F4A_7C15)`.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit hash — the content-address function for cache keys and
/// report digests. Stable across platforms, runs, and Rust versions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let s = std::array::from_fn(|k| {
            splitmix64(seed.wrapping_add((k as u64).wrapping_mul(GOLDEN_GAMMA)))
        });
        StdRng { s }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

/// A range that a value can be drawn from uniformly.
pub trait SampleRange<T> {
    /// Draws one value from the range using `rng`.
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> T;
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value uniformly distributed over `range`. Panics on empty ranges.
    ///
    /// Inlined so a fill loop's per-element draw never becomes a call:
    /// left to the optimizer, unrelated edits to a caller's crate flipped
    /// that choice and slowed a set-up built on `Tensor::randn` by half.
    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<G: RngCore + ?Sized> Rng for G {}

/// A uniform f64 in `[0, 1)` with 53 random mantissa bits.
#[inline]
fn unit_f64<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleRange<f32> for std::ops::Range<f32> {
    #[inline]
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f32 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + (unit_f64(rng) as f32) * (self.end - self.start);
        // Float rounding can land exactly on the exclusive upper bound.
        if v < self.end {
            v
        } else {
            self.end.next_down()
        }
    }
}

impl SampleRange<f64> for std::ops::Range<f64> {
    #[inline]
    fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        let v = self.start + unit_f64(rng) * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.end.next_down()
        }
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<G: RngCore + ?Sized>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range {start}..={end}");
                let span = (end as i128 - start as i128 + 1) as u128;
                (start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_int_sample_range!(usize, u64, u32, isize, i64, i32);

/// In-place uniform permutation of slices.
pub trait SliceRandom {
    /// Fisher–Yates shuffle driven by `rng`.
    fn shuffle<G: RngCore>(&mut self, rng: &mut G);
}

impl<T> SliceRandom for [T] {
    fn shuffle<G: RngCore>(&mut self, rng: &mut G) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stream_is_stable_across_releases() {
        // Pin the first outputs so a refactor can never silently change
        // every seeded experiment in the workspace.
        let mut r = StdRng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 11091344671253066420);
        assert_eq!(r.next_u64(), 13793997310169335082);
        assert_eq!(r.next_u64(), 1900383378846508768);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v: f32 = r.gen_range(0.25f32..0.75);
            assert!((0.25..0.75).contains(&v));
            let w: f64 = r.gen_range(-2.0f64..-1.0);
            assert!((-2.0..-1.0).contains(&w));
        }
    }

    #[test]
    fn int_ranges_hit_all_values() {
        let mut r = StdRng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.gen_range(0usize..5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut seen_inc = [false; 3];
        for _ in 0..100 {
            seen_inc[r.gen_range(1usize..=3) - 1] = true;
        }
        assert!(seen_inc.iter().all(|&s| s));
    }

    #[test]
    fn signed_ranges_cover_negatives() {
        let mut r = StdRng::seed_from_u64(5);
        let mut lo_seen = false;
        for _ in 0..200 {
            let v = r.gen_range(-3i32..3);
            assert!((-3..3).contains(&v));
            lo_seen |= v < 0;
        }
        assert!(lo_seen);
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut r = StdRng::seed_from_u64(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0f64..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut r = StdRng::seed_from_u64(7);
        let mut v: Vec<u32> = (0..32).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..32).collect::<Vec<_>>(),
            "32 elements should not shuffle to identity"
        );

        let mut r2 = StdRng::seed_from_u64(7);
        let mut v2: Vec<u32> = (0..32).collect();
        v2.shuffle(&mut r2);
        assert_eq!(v, v2);
    }
}
