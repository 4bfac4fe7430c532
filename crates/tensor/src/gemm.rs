//! Blocked, `support::par`-parallel single-precision GEMM.
//!
//! The convolution path (`conv::conv2d`) lowers to `C = A * B` where `A` is
//! the filter matrix and `B` the im2col patch matrix. This GEMM is a simple
//! cache-blocked kernel parallelized over row panels with `support::par` —
//! not a BLAS competitor, but fast enough to train the mini models in
//! `defcon-models`. Results are bitwise reproducible at any thread count:
//! each output element is accumulated by exactly one task, in ascending-k
//! order, so the same bits come out as from the naive triple loop the
//! tests compare against.

use defcon_support::par::ParallelSliceMut;

/// Row-panel height processed per parallel task.
const PANEL: usize = 32;
/// K-blocking depth (inner accumulation tile) — sized so an A-panel row block
/// plus a B block stay L1-resident.
const KBLOCK: usize = 256;
/// Register-block width of the microkernel: each steady-state pass keeps
/// `NR` output accumulators in a fixed-size array (registers after
/// vectorization) and runs the k loop over them with no bounds checks.
pub(crate) const NR: usize = 8;

/// The shared register-blocked saxpy microkernel:
/// `c_row += Σ_kk a_col[kk] · b_panel[kk·n ..][..n]` over `a_col.len()` rows
/// of `b_panel`.
///
/// Steady state walks `c_row` in `NR`-wide register blocks: the block is
/// loaded into a fixed `[f32; NR]`, every k contributes through a fully
/// unrolled bounds-check-free inner loop, and the block stores back once.
/// The remainder columns fall through to a scalar loop. Per output element
/// the accumulation is the ascending-k product sequence of the naive triple
/// loop, so results are bit-identical to it at any blocking width (the
/// module's property test pins this). The `a == 0.0` skip keeps
/// sparse-filter throughput without moving a bit: a sum that starts at
/// `+0.0` is unchanged by a `±0.0` term.
#[inline]
pub(crate) fn saxpy_panel(a_col: &[f32], b_panel: &[f32], c_row: &mut [f32], n: usize) {
    let kb = a_col.len();
    let mut j0 = 0usize;
    while j0 + NR <= n {
        let mut acc = [0.0f32; NR];
        acc.copy_from_slice(&c_row[j0..j0 + NR]);
        for kk in 0..kb {
            let aik = a_col[kk];
            if aik == 0.0 {
                continue;
            }
            let b_blk = &b_panel[kk * n + j0..kk * n + j0 + NR];
            for jj in 0..NR {
                acc[jj] += aik * b_blk[jj];
            }
        }
        c_row[j0..j0 + NR].copy_from_slice(&acc);
        j0 += NR;
    }
    if j0 < n {
        for kk in 0..kb {
            let aik = a_col[kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &b_panel[kk * n..(kk + 1) * n];
            for j in j0..n {
                c_row[j] += aik * b_row[j];
            }
        }
    }
}

/// `c = a * b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all row-major.
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    c.fill(0.0);

    // Parallelize over disjoint row panels of C; no two tasks write the same
    // output element, so this is race-free by construction. Each (k-block,
    // row) pair runs the register-blocked microkernel.
    c.par_chunks_mut(PANEL * n)
        .enumerate()
        .for_each(|(panel_idx, c_panel)| {
            let row0 = panel_idx * PANEL;
            let rows = c_panel.len() / n;
            for k0 in (0..k).step_by(KBLOCK) {
                let k1 = (k0 + KBLOCK).min(k);
                for r in 0..rows {
                    let a_row = &a[(row0 + r) * k..(row0 + r + 1) * k];
                    let c_row = &mut c_panel[r * n..(r + 1) * n];
                    saxpy_panel(&a_row[k0..k1], &b[k0 * n..k1 * n], c_row, n);
                }
            }
        });
}

/// `c = a * b^T` where `a` is `m×k`, `b` is `n×k` (so `b^T` is `k×n`).
///
/// Used by convolution backward passes where the filter matrix must be
/// applied transposed without materializing the transpose.
///
/// Register-blocked over `NR` output columns: the A row streams through
/// once per column block instead of once per column, and the `NR`
/// independent dot accumulators vectorize. Each output element is still one
/// ascending-k dot product — a single accumulator per element, never split —
/// so results are bit-identical to the naive `a·bᵀ` loop.
pub fn gemm_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length mismatch");
    assert_eq!(b.len(), n * k, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");

    c.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        let a_row = &a[i * k..(i + 1) * k];
        let mut j0 = 0usize;
        while j0 + NR <= n {
            let mut acc = [0.0f32; NR];
            for (kk, &av) in a_row.iter().enumerate() {
                for jj in 0..NR {
                    acc[jj] += av * b[(j0 + jj) * k + kk];
                }
            }
            c_row[j0..j0 + NR].copy_from_slice(&acc);
            j0 += NR;
        }
        for (j, cv) in c_row.iter_mut().enumerate().skip(j0) {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (av, bv) in a_row.iter().zip(b_row.iter()) {
                acc += av * bv;
            }
            *cv = acc;
        }
    });
}

/// `c = a^T * b` where `a` is `k×m`, `b` is `k×n`, output `m×n`.
///
/// Same microkernel shape as [`gemm`] with the A element gathered through
/// its transposed stride; bit-identical to the naive `aᵀ·b` loop.
pub fn gemm_at(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A length mismatch");
    assert_eq!(b.len(), k * n, "B length mismatch");
    assert_eq!(c.len(), m * n, "C length mismatch");
    c.fill(0.0);

    c.par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        let mut j0 = 0usize;
        while j0 + NR <= n {
            let mut acc = [0.0f32; NR];
            acc.copy_from_slice(&c_row[j0..j0 + NR]);
            for kk in 0..k {
                let aki = a[kk * m + i];
                if aki == 0.0 {
                    continue;
                }
                let b_blk = &b[kk * n + j0..kk * n + j0 + NR];
                for jj in 0..NR {
                    acc[jj] += aki * b_blk[jj];
                }
            }
            c_row[j0..j0 + NR].copy_from_slice(&acc);
            j0 += NR;
        }
        if j0 < n {
            for kk in 0..k {
                let aki = a[kk * m + i];
                if aki == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for j in j0..n {
                    c_row[j] += aki * b_row[j];
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive triple loop over element accessors `a(i, kk)` and
    /// `b(kk, j)`, so one definition covers `a·b`, `a·bᵀ` and `aᵀ·b`: one
    /// ascending-k sum per output element, started at `+0.0`.
    fn naive_by(
        m: usize,
        k: usize,
        n: usize,
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
    ) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a(i, kk) * b(kk, j);
                }
            }
        }
        c
    }

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        naive_by(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j])
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (37, 53, 29);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 104729) % 17) as f32 - 8.0)
            .collect();
        let mut c = vec![0.0; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_identity() {
        let n = 16;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let b: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        let mut c = vec![0.0; n * n];
        gemm(&eye, &b, &mut c, n, n, n);
        assert_eq!(c, b);
    }

    #[test]
    fn gemm_bt_matches_gemm_with_transpose() {
        let (m, k, n) = (9, 15, 11);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32).collect();
        let b_t: Vec<f32> = (0..n * k).map(|i| (i % 7) as f32 - 3.0).collect();
        // materialize b = (b_t)^T : k x n
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                b[kk * n + j] = b_t[j * k + kk];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(&a, &b, &mut c1, m, k, n);
        gemm_bt(&a, &b_t, &mut c2, m, k, n);
        for (x, y) in c1.iter().zip(c2.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_at_matches_gemm_with_transpose() {
        let (m, k, n) = (8, 12, 10);
        let a_t: Vec<f32> = (0..k * m).map(|i| (i % 6) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 4) as f32).collect();
        let mut a = vec![0.0; m * k];
        for kk in 0..k {
            for i in 0..m {
                a[i * k + kk] = a_t[kk * m + i];
            }
        }
        let mut c1 = vec![0.0; m * n];
        let mut c2 = vec![0.0; m * n];
        gemm(&a, &b, &mut c1, m, k, n);
        gemm_at(&a_t, &b, &mut c2, m, k, n);
        for (x, y) in c1.iter().zip(c2.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn gemm_empty_k() {
        let mut c = vec![1.0; 4];
        gemm(&[], &[], &mut c, 2, 0, 2);
        assert_eq!(c, vec![0.0; 4]);
    }

    /// Pseudo-random matrix with interspersed exact zeros so the `== 0.0`
    /// skip path is exercised.
    fn sprinkle(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
                if h % 7 == 0 {
                    0.0
                } else {
                    ((h % 4096) as f32 - 2048.0) / 512.0
                }
            })
            .collect()
    }

    #[test]
    fn prop_blocked_gemms_are_bitwise_identical_to_the_naive_loop() {
        use defcon_support::prop::{self, Config};
        use defcon_support::rng::Rng;

        // The register-blocked microkernels accumulate the same
        // ascending-k product sequence per output element as the naive
        // triple loop, so every variant must agree with it to the bit —
        // including odd extents that exercise the scalar tails and
        // dimensions below one register block.
        let same_bits =
            |x: &[f32], y: &[f32]| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits());
        prop::check(
            "blocked gemm/bt/at ≡ naive loop bitwise",
            &Config::cases(24),
            |rng| {
                let m = rng.gen_range(1usize..40);
                let k = rng.gen_range(0usize..70);
                let n = rng.gen_range(1usize..40);
                (m, k, n, rng.gen_range(0u64..u64::MAX))
            },
            |&(m, k, n, seed)| {
                let a = sprinkle(m * k, seed);
                let b = sprinkle(k * n, seed ^ 0xABCD);
                let bt = sprinkle(n * k, seed ^ 0x1234);
                let at = sprinkle(k * m, seed ^ 0x5678);
                let mut c = vec![0.0f32; m * n];
                gemm(&a, &b, &mut c, m, k, n);
                defcon_support::prop_assert!(
                    same_bits(&c, &naive(&a, &b, m, k, n)),
                    "gemm diverged from the naive loop at {m}x{k}x{n}"
                );
                gemm_bt(&a, &bt, &mut c, m, k, n);
                let expect = naive_by(m, k, n, |i, kk| a[i * k + kk], |kk, j| bt[j * k + kk]);
                defcon_support::prop_assert!(
                    same_bits(&c, &expect),
                    "gemm_bt diverged from the naive loop at {m}x{k}x{n}"
                );
                gemm_at(&at, &b, &mut c, m, k, n);
                let expect = naive_by(m, k, n, |i, kk| at[kk * m + i], |kk, j| b[kk * n + j]);
                defcon_support::prop_assert!(
                    same_bits(&c, &expect),
                    "gemm_at diverged from the naive loop at {m}x{k}x{n}"
                );
                Ok(())
            },
        );
    }
}
