//! Wall-clock throughput of the zero-allocation trace hot path.
//!
//! Run with:
//!
//! ```sh
//! cargo bench -p defcon-bench --offline --bench hot_path
//! ```
//!
//! Measures serial (1-thread) throughput on the paper's exhaustive 550×550
//! Table II layer for the software im2col sampling kernel (the headline:
//! scattered neighbour loads make it the hot path's worst offender) and the
//! fused texture kernel of every operator family, with the per-block
//! cadence of the serial engine (flush L1 + texture cache, trace, merge
//! counters).
//!
//! **Host speed.** On a shared host a fixed loop runs 30–75 % slower for
//! tens of seconds at a time, so every pass is timed in segments
//! interleaved, on the same thread, with a fixed reference loop, and its
//! wall time is scaled to a host where that loop takes
//! [`REFERENCE_LOOP_S`]. Rates are blocks per reference-loop second.
//!
//! **Bars.** `BENCH_hotpath.json` holds, per kernel, the throughput of the
//! pre-optimization hot path (per-warp `Vec` collects, the allocating
//! coalescer, split-array `%`-indexed caches), timed this same way over six
//! runs before that path was deleted. Those rates are frozen: the bench
//! reads them from the committed file and copies them through, never
//! re-measures them. Against its frozen median, the software im2col DCNv1
//! kernel must reach ≥ 1.5× and the fused tex2D DCNv1 kernel ≥ 1.4×; the
//! other four kernels are reported.
//!
//! **Same answers.** Every timed pass's counters + exposed-latency
//! fingerprint must hash to the digest frozen from the pre-optimization
//! simulator in `tests/golden/frozen_oracles.json`, so old and new differ
//! in nothing but speed. (The root test `tests/frozen_oracles.rs` checks
//! the tiny layer's launch reports and fingerprints on every `cargo test`.)
//!
//! With `DEFCON_TINY` set, a small layer is checked and timed, and nothing
//! is written or gated. Otherwise the result goes to `BENCH_hotpath.json`
//! at the repo root (`DEFCON_BENCH_OUT` overrides the path) and the bars
//! fire.

use defcon_gpusim::cache::Cache;
use defcon_gpusim::report::Counters;
use defcon_gpusim::trace::{BlockTrace, TraceSink};
use defcon_gpusim::DeviceConfig;
use defcon_kernels::fused::FusedTexDeformKernel;
use defcon_kernels::im2col::Im2colDeformKernel;
use defcon_kernels::op::{synthetic_inputs, synthetic_modulation, DeformConvOp, OpFamily};
use defcon_kernels::{DeformLayerShape, SamplingMethod};
use defcon_support::json::{Json, ToJson};
use defcon_support::rng::fnv1a64;
use std::time::Instant;

/// Seconds the reference loop takes on an idle 2-vCPU Xeon host: a timed
/// pass is scaled to the time it would have taken there.
const REFERENCE_LOOP_S: f64 = 12e-6;
/// Entries of the reference loop's table (1 MiB of `u64`).
const REF_TABLE: usize = 1 << 17;
/// Host-speed samples per timed pass, spread evenly over its blocks.
const REF_SAMPLES: usize = 64;
/// Timed passes per kernel; the fastest counts.
const PASSES: usize = 2;
/// Minimum speed-up over the frozen pre-optimization rate.
const BARS: [(&str, f64); 2] = [("deform_im2col_sw", 1.5), ("deform_fused_tex2d", 1.4)];

/// The reference loop: fixed random updates of a 1 MiB table, then
/// formatting and hashing. It is this bench's own code, so no change to
/// the simulator moves it.
fn reference_loop(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..2048 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x);
    }
    let mut text = String::new();
    for i in 0..64 {
        text.push_str(&format!(
            "{i}:{:x};",
            table[(x as usize).wrapping_add(i) & mask]
        ));
    }
    fnv1a64(text.as_bytes())
}

/// The host's speed now, as `REFERENCE_LOOP_S / loop seconds`: the faster
/// of two back-to-back loops, so the first can warm what the kernel evicted.
fn host_speed(table: &mut [u64]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        std::hint::black_box(reference_loop(table));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    REFERENCE_LOOP_S / best
}

/// Blocks per reference-loop second of one full-grid pass. `run_block` is
/// timed in `REF_SAMPLES` segments on this thread, with a host-speed sample
/// before each segment and one after the last; the pass's wall time is
/// scaled by the mean speed.
fn blocks_per_ref_s(grid: usize, table: &mut [u64], mut run_block: impl FnMut(usize)) -> f64 {
    let every = grid.div_ceil(REF_SAMPLES);
    let (mut wall, mut speed, mut samples) = (0.0f64, 0.0f64, 0usize);
    for start in (0..grid).step_by(every) {
        speed += host_speed(table);
        samples += 1;
        let t0 = Instant::now();
        for b in start..(start + every).min(grid) {
            run_block(b);
        }
        wall += t0.elapsed().as_secs_f64();
    }
    speed += host_speed(table);
    samples += 1;
    grid as f64 / (wall * speed / samples as f64)
}

/// One timed full-grid pass with the serial engine's per-block cadence:
/// `(blocks per reference-loop second, counters + latency fingerprint)`.
fn timed_pass(kernel: &dyn BlockTrace, cfg: &DeviceConfig, table: &mut [u64]) -> (f64, String) {
    let warps = kernel.block_threads().div_ceil(cfg.warp_size);
    let mut l1 = Cache::new(cfg.l1);
    let mut texc = Cache::new(cfg.tex_cache);
    let mut l2 = Cache::new(cfg.l2);
    let mut counters = Counters::default();
    let mut latency = 0u64;
    let rate = blocks_per_ref_s(kernel.grid_blocks(), table, |b| {
        l1.flush();
        texc.flush();
        let mut sink = TraceSink::new(cfg, &mut l1, &mut texc, &mut l2, warps);
        kernel.trace_block(b, &mut sink);
        latency += sink.cost.latency_cycles;
        counters.merge(&sink.counters);
    });
    (
        rate,
        format!("{} latency_cycles={latency}", counters.to_json()),
    )
}

fn main() {
    let tiny = defcon_bench::tiny_mode();
    let (shape, layer) = if tiny {
        (DeformLayerShape::same3x3(4, 4, 40, 40), "tiny")
    } else {
        (DeformLayerShape::same3x3(16, 16, 550, 550), "full")
    };
    let cfg = DeviceConfig::xavier_agx();
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 0xA11C);
    let golden = Json::parse(include_str!("../tests/golden/frozen_oracles.json"))
        .expect("frozen_oracles.json parses");
    let committed_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let committed = (!tiny).then(|| {
        Json::parse(&std::fs::read_to_string(committed_path).expect("read BENCH_hotpath.json"))
            .expect("BENCH_hotpath.json parses")
    });

    let mut table = vec![0u64; REF_TABLE];
    let mut kernels: Vec<(String, Json)> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for family in OpFamily::all() {
        let op = DeformConvOp {
            family,
            modulation: synthetic_modulation(&shape, family, 0xA11C),
            ..DeformConvOp::baseline(shape)
        };
        let im2col = Im2colDeformKernel::new(&op, &x, &offsets, cfg.texture_limits())
            .expect("texture limits exceeded");
        let tex2d = DeformConvOp {
            method: SamplingMethod::Tex2d,
            ..op.clone()
        };
        let fused =
            FusedTexDeformKernel::new(&tex2d, &x, &offsets, &cfg).expect("texture limits exceeded");
        for kernel in [&im2col as &dyn BlockTrace, &fused] {
            let name = kernel.label();
            let frozen_fp = golden
                .get("hot_path_fingerprint")
                .and_then(|s| s.get(&format!("{layer} {name}")))
                .and_then(Json::as_str)
                .expect("frozen fingerprint digest");
            let mut rate = 0f64;
            for _ in 0..PASSES {
                let (r, fp) = timed_pass(kernel, &cfg, &mut table);
                assert_eq!(
                    format!("{:016x}", fnv1a64(fp.as_bytes())),
                    frozen_fp,
                    "{name}: counters or latency moved off the frozen pre-optimization simulator"
                );
                rate = rate.max(r);
            }
            let Some(committed) = &committed else {
                println!("hot_path: {name} ({layer}): {rate:.0} blocks/ref-s, fingerprint OK");
                continue;
            };
            let legacy = committed
                .get("kernels")
                .and_then(|k| k.get(&name))
                .and_then(|k| k.get("legacy"))
                .expect("frozen legacy rate in BENCH_hotpath.json");
            let speedup = rate / legacy.num_field("median_blocks_per_ref_s").expect("median");
            println!(
                "hot_path: {name} ({} blocks): {rate:.0} blocks/ref-s, {speedup:.2}x the frozen \
                 pre-optimization rate, fingerprint OK",
                kernel.grid_blocks()
            );
            kernels.push((
                name.clone(),
                Json::obj(vec![
                    ("grid_blocks", Json::from(kernel.grid_blocks())),
                    ("legacy", legacy.clone()),
                    ("blocks_per_ref_s", Json::from(rate)),
                    ("speedup", Json::from(speedup)),
                ]),
            ));
            speedups.push((name, speedup));
        }
    }
    if tiny {
        println!("hot_path: DEFCON_TINY set — fingerprints checked, nothing written or gated");
        return;
    }

    let out_path =
        defcon_support::env::or_die(defcon_support::env::path(defcon_support::env::BENCH_OUT))
            .unwrap_or_else(|| std::path::PathBuf::from(committed_path));
    let doc = Json::obj(vec![
        ("layer", Json::str("same3x3(16,16,550,550)")),
        (
            "policy",
            Json::str(
                "exhaustive, 1 thread, blocks per reference-loop second (wall time scaled to a \
                 12 us reference loop sampled inline)",
            ),
        ),
        (
            "bars",
            Json::obj(BARS.iter().map(|&(k, bar)| (k, Json::from(bar))).collect()),
        ),
        ("kernels", Json::Obj(kernels)),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write BENCH_hotpath.json");
    println!("hot_path: wrote {}", out_path.display());

    for (kernel, bar) in BARS {
        let (_, speedup) = speedups
            .iter()
            .find(|(name, _)| name == kernel)
            .expect("barred kernel was timed");
        assert!(
            *speedup >= bar,
            "{kernel} speedup {speedup:.2}x below the {bar}x bar over the frozen \
             pre-optimization rate"
        );
    }
}
