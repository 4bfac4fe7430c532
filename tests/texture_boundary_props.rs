//! Property test pinning the branch-free texture sampler at the border
//! addressing boundaries.
//!
//! The sampler hoists border resolution out of the per-texel loop, replaces
//! the quantization divide with an exact reciprocal multiply, and splits
//! the fetch into a layer-independent plan plus a per-layer replay. None of
//! that may move a bit. Over a boundary-heavy coordinate grid (texel edges,
//! the half-texel filter seams, just-outside and far-outside positions):
//!
//! * at full filter precision the fetched value must equal the CPU
//!   reference sampler `tensor::sample::bilinear_sample` bit for bit — the
//!   definition of bilinear sampling with zero-valued out-of-bounds
//!   neighbours (paper §II-A);
//! * at both filter precisions the value, the texel address list and its
//!   length must hash to the digests `crates/bench/tests/golden/
//!   frozen_oracles.json` froze from the pre-rewrite sampler on exactly
//!   these inputs.

use defcon::gpusim::texture::LayeredTexture2d;
use defcon::tensor::sample::bilinear_sample;
use defcon::tensor::Tensor;
use defcon_support::json::Json;
use defcon_support::prop::{self, Config};
use defcon_support::prop_assert_eq;
use defcon_support::rng::{fnv1a64, Rng};
use std::cell::RefCell;

const CASES: u32 = 24;

/// Filter precisions the kernels bind: `tex2D` (fp32) and `tex2D++`.
const FRAC_BITS: [u32; 2] = [23, 8];

/// Deterministic pseudo-random texel data in [-2, 2).
fn texels(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
        })
        .collect()
}

/// Coordinates that straddle every interesting seam of one axis of extent
/// `n`: texel centres and edges, the ±0.5 filter seam, epsilon inside and
/// outside both ends, and far out of range.
fn boundary_coords(extent: usize, extra: f32) -> Vec<f32> {
    let n = extent as f32;
    vec![
        -2.25,
        -1.0,
        -0.75,
        -0.5,
        -f32::EPSILON,
        0.0,
        0.25,
        0.5,
        1.0,
        (extent / 2) as f32 + 0.5,
        n - 1.0,
        n - 0.5,
        n - 0.25,
        n - n * f32::EPSILON,
        n,
        n + 0.5,
        n + 1.75,
        extra,
    ]
}

#[test]
fn fetch_matches_legacy_at_address_mode_boundaries() {
    // One byte stream per filter precision: every fetch's value bits, `len`
    // and live addresses, little-endian, in visit order.
    let streams = RefCell::new([Vec::<u8>::new(), Vec::<u8>::new()]);
    prop::check(
        "fetch_matches_legacy_at_address_mode_boundaries",
        &Config::new(CASES, 0xDEFC_0810),
        |rng| {
            (
                rng.gen_range(1usize..4),
                rng.gen_range(2usize..13),
                rng.gen_range(2usize..13),
                rng.gen_range(0u64..10_000),
                rng.gen_range(-2.0f32..14.0),
                rng.gen_range(-2.0f32..14.0),
            )
        },
        |&(layers, h, w, seed, fy, fx)| {
            let reference = Tensor::from_vec(texels(layers * h * w, seed), &[1, layers, h, w]);
            for (stream, frac_bits) in FRAC_BITS.into_iter().enumerate() {
                let mut tex = LayeredTexture2d::new(layers, h, w, 0x8000_0000, 2048, 32768)
                    .expect("within device limits");
                tex.frac_bits = frac_bits;
                let mut streams = streams.borrow_mut();
                let bytes = &mut streams[stream];
                for layer in 0..layers {
                    for &y in &boundary_coords(h, fy) {
                        for &x in &boundary_coords(w, fx) {
                            let f = tex.fetch(reference.data(), layer, y, x);
                            if frac_bits == 23 {
                                let want = bilinear_sample(&reference, 0, layer, y, x);
                                prop_assert_eq!(f.value.to_bits(), want.to_bits());
                            }
                            bytes.extend_from_slice(&f.value.to_bits().to_le_bytes());
                            bytes.push(f.len);
                            for a in &f.addresses[..f.len as usize] {
                                bytes.extend_from_slice(&a.to_le_bytes());
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
    let golden = Json::parse(include_str!(
        "../crates/bench/tests/golden/frozen_oracles.json"
    ))
    .expect("frozen_oracles.json parses");
    for (stream, frac_bits) in FRAC_BITS.into_iter().enumerate() {
        let key = format!("frac_bits {frac_bits}");
        let frozen = golden
            .get("texture_fetch")
            .and_then(|s| s.get(&key))
            .and_then(Json::as_str)
            .expect("frozen texture digest");
        assert_eq!(
            format!("{:016x}", fnv1a64(&streams.borrow()[stream])),
            frozen,
            "texture fetches at {key} moved off the frozen pre-rewrite sampler"
        );
    }
}
