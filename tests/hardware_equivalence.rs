//! Property tests tying the two halves of the reproduction together:
//!
//! * the CPU reference sampler (`tensor::sample::bilinear_sample`) and the
//!   simulated texture hardware path (`gpusim::texture`) must agree — the
//!   paper's whole premise is that moving bilinear interpolation into the
//!   texture unit changes *where* the arithmetic happens, not the result;
//! * the set-associative cache model must behave as a true-LRU cache, which
//!   we check against a naive per-set reference implementation.

use defcon::gpusim::cache::{Access, Cache};
use defcon::gpusim::device::{CacheGeometry, DeviceConfig};
use defcon::gpusim::texture::LayeredTexture2d;
use defcon::prelude::*;
use defcon_support::prop::{self, Config};
use defcon_support::rng::{Rng, StdRng};
use defcon_support::{prop_assert, prop_assert_eq};

const CASES: u32 = 24;

/// Binds a layered texture over every `(n, c)` slice of a `[1, C, H, W]`
/// tensor, the mapping the kernels use (one feature-map slice per layer).
fn texture_of(t: &Tensor, frac_bits: u32) -> LayeredTexture2d {
    let (n, c, h, w) = t.shape().nchw();
    let dev = DeviceConfig::xavier_agx();
    let mut tex =
        LayeredTexture2d::new(n * c, h, w, 0, dev.max_texture_layers, dev.max_texture_dim)
            .expect("test shapes fit device limits");
    tex.frac_bits = frac_bits;
    tex
}

/// `tex2D` (fp32 filtering, border addressing) equals the software sampler
/// everywhere — including fractional positions straddling the border and
/// fully out-of-bounds positions.
#[test]
fn texture_fetch_matches_software_bilinear() {
    prop::check(
        "texture_fetch_matches_software_bilinear",
        &Config::new(CASES, 0xDEFC_0010),
        |rng| {
            let c = rng.gen_range(1usize..4);
            let h = rng.gen_range(2usize..12);
            let w = rng.gen_range(2usize..12);
            let seed = rng.gen_range(0u64..1000);
            let coords: Vec<(usize, f32, f32)> = (0..40)
                .map(|_| {
                    (
                        rng.gen_range(0usize..c),
                        rng.gen_range(-3.0f32..h as f32 + 3.0),
                        rng.gen_range(-3.0f32..w as f32 + 3.0),
                    )
                })
                .collect();
            (c, h, w, seed, coords)
        },
        |(c, h, w, seed, coords)| {
            let t = Tensor::randn(&[1, *c, *h, *w], 0.0, 1.0, *seed);
            let tex = texture_of(&t, 23);
            for &(ch, y, x) in coords {
                let hw = tex.fetch(t.data(), ch, y, x).value;
                let sw = defcon::tensor::sample::bilinear_sample(&t, 0, ch, y, x);
                prop_assert!(
                    (hw - sw).abs() < 1e-5,
                    "layer {ch} at ({y},{x}): hardware {hw} vs software {sw}"
                );
            }
            Ok(())
        },
    );
}

/// `tex2D++` (8-bit interpolation fractions) stays within one filter quantum
/// of the software result: the weight error is ≤ 2⁻⁹ per axis, and the
/// sample is a convex combination of values whose spread bounds the damage.
#[test]
fn tex2dpp_error_bounded_by_filter_quantum() {
    prop::check(
        "tex2dpp_error_bounded_by_filter_quantum",
        &Config::new(CASES, 0xDEFC_0011),
        |rng| {
            let h = rng.gen_range(4usize..12);
            let w = rng.gen_range(4usize..12);
            let seed = rng.gen_range(0u64..1000);
            let coords: Vec<(f32, f32)> = (0..40)
                .map(|_| {
                    (
                        rng.gen_range(0.0f32..(h - 1) as f32),
                        rng.gen_range(0.0f32..(w - 1) as f32),
                    )
                })
                .collect();
            (h, w, seed, coords)
        },
        |(h, w, seed, coords)| {
            // Values in [0, 1] so the neighbour spread is ≤ 1.
            let t = Tensor::rand_uniform(&[1, 1, *h, *w], 0.0, 1.0, *seed);
            let tex = texture_of(&t, 8);
            for &(y, x) in coords {
                let hw = tex.fetch(t.data(), 0, y, x).value;
                let sw = defcon::tensor::sample::bilinear_sample(&t, 0, 0, y, x);
                // Two axes, each fraction off by ≤ 2⁻⁹, spread ≤ 1.
                prop_assert!(
                    (hw - sw).abs() <= 2.0 / 512.0 + 1e-5,
                    "at ({y},{x}): tex2D++ {hw} drifted from {sw}"
                );
            }
            Ok(())
        },
    );
}

/// A naive true-LRU model: per set, a most-recent-first list of tags.
struct RefLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl RefLru {
    fn new(geo: &CacheGeometry) -> Self {
        RefLru {
            sets: vec![Vec::new(); geo.num_sets()],
            ways: geo.ways,
        }
    }

    fn access_line(&mut self, line: u64) -> Access {
        let idx = (line % self.sets.len() as u64) as usize;
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            set.remove(pos);
            set.insert(0, line);
            Access::Hit
        } else {
            set.insert(0, line);
            set.truncate(self.ways);
            Access::Miss
        }
    }
}

/// The cache model agrees access-for-access with the reference LRU on both
/// Xavier cache geometries (4-way L1, 16-way L2).
#[test]
fn cache_matches_reference_lru() {
    let dev = DeviceConfig::xavier_agx();
    for (name, geo) in [("l1", dev.l1), ("l2", dev.l2)] {
        prop::check(
            &format!("cache_matches_reference_lru/{name}"),
            &Config::new(CASES, 0xDEFC_0012),
            |rng: &mut StdRng| {
                let n = rng.gen_range(1usize..400);
                // A line span a few times the set count, so sets see both
                // conflict evictions and reuse.
                let span = 8 * geo.num_sets() as u64;
                (0..n)
                    .map(|_| rng.gen_range(0u64..span))
                    .collect::<Vec<u64>>()
            },
            |lines| {
                let mut cache = Cache::new(geo);
                let mut reference = RefLru::new(&geo);
                for &l in lines {
                    let got = cache.access_line(l);
                    let want = reference.access_line(l);
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(cache.hits() + cache.misses(), lines.len() as u64);
                Ok(())
            },
        );
    }
}

/// Capacity invariant: a working set that fits one set's ways entirely hits
/// on the second pass, however the accesses are ordered.
#[test]
fn cache_working_set_within_ways_never_thrashes() {
    let dev = DeviceConfig::xavier_agx();
    prop::check(
        "cache_working_set_within_ways_never_thrashes",
        &Config::new(CASES, 0xDEFC_0013),
        |rng| {
            let geo = dev.l1;
            let sets = geo.num_sets() as u64;
            let set = rng.gen_range(0u64..sets);
            // Exactly `ways` distinct lines, all mapping to the same set.
            let lines: Vec<u64> = (0..geo.ways as u64).map(|k| set + k * sets).collect();
            let order: Vec<usize> = (0..lines.len() * 4)
                .map(|_| rng.gen_range(0usize..lines.len()))
                .collect();
            (lines, order)
        },
        |(lines, order)| {
            let mut cache = Cache::new(dev.l1);
            for &l in lines {
                cache.access_line(l);
            }
            cache.reset_stats();
            for &i in order {
                prop_assert_eq!(cache.access_line(lines[i]), Access::Hit);
            }
            prop_assert_eq!(cache.misses(), 0);
            Ok(())
        },
    );
}
