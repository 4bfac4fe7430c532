//! Whole-network benchmark: the three Table III cells perfbench's
//! `t3_r101` times, each one `zoo::simulate_network` call, written to
//! `BENCH_e2e.json`.
//!
//! Run with:
//!
//! ```sh
//! cargo bench -p defcon-bench --offline --bench e2e
//! ```
//!
//! The cells are YOLACT++ ResNet-101 at 550 on the Xavier model with
//! 96-block sampling, one engine thread and the fixed 16×16 tile: the
//! interval-3 baseline, the searched placement on the software path, and
//! the searched placement with P = 7, the lightweight predictor and
//! tex2D++. Each network runs once under an armed observability scope, so
//! the launch memo's `gpusim.memo.hits` / `gpusim.memo.misses` counters
//! can be read per network; recording them costs a few microseconds per
//! launch against seconds per network.
//!
//! The `"report"` object is deterministic: each cell's total milliseconds
//! as an f64 bit pattern, the FNV-1a digest over those bits (the same
//! digest perfbench prints for `t3_r101`) and the memo hits and misses per
//! network. The trailing `"timing"` object holds wall milliseconds per
//! network, the only field that may differ between runs; ci.sh strips it
//! and compares two runs' bytes. `DEFCON_BENCH_OUT` redirects the file.

use defcon_core::pipeline::{DefconConfig, TileChoice};
use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon_kernels::{SamplingMethod, TileConfig};
use defcon_models::zoo::{resnet_3x3_slots, simulate_network, DcnLayout, NetLayer};
use defcon_support::json::Json;
use defcon_support::rng::fnv1a64;
use defcon_support::{env, obs};
use std::time::Instant;

/// The three cells, in perfbench's visiting order.
fn cells() -> Vec<(&'static str, Vec<NetLayer>, DefconConfig)> {
    let fixed = TileChoice::Fixed(TileConfig::default16());
    let searched = resnet_3x3_slots(101, DcnLayout::Searched);
    let software = DefconConfig {
        tile: fixed,
        ..DefconConfig::baseline()
    };
    vec![
        (
            "interval3_sw",
            resnet_3x3_slots(101, DcnLayout::Interval(3)),
            software,
        ),
        (
            "searched_sw",
            searched.clone(),
            DefconConfig {
                interval_search: true,
                ..software
            },
        ),
        (
            "searched_full",
            searched,
            DefconConfig {
                interval_search: true,
                bounded: Some(7.0),
                lightweight: true,
                method: SamplingMethod::Tex2dPlusPlus,
                ..software
            },
        ),
    ]
}

fn main() {
    let gpu = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy {
            threads: 1,
            ..SamplePolicy::default()
        },
    );
    let _obs = obs::arm(obs::ObsConfig::default());
    let mut rows = Vec::new();
    let mut timing = Vec::new();
    let mut bytes = Vec::new();
    let mut totals = Vec::new();
    for (name, slots, config) in cells() {
        let (h0, m0) = (
            obs::counter("gpusim.memo.hits"),
            obs::counter("gpusim.memo.misses"),
        );
        let t0 = Instant::now();
        let total = simulate_network(&gpu, &slots, &config);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let hits = obs::counter("gpusim.memo.hits") - h0;
        let misses = obs::counter("gpusim.memo.misses") - m0;
        println!(
            "e2e {name}: {total:.4} sim ms, memo {hits} hits / {misses} misses, {wall_ms:.0} wall ms"
        );
        bytes.extend(total.to_bits().to_le_bytes());
        totals.push(total);
        rows.push(Json::obj(vec![
            ("cell", Json::str(name)),
            ("total_bits", Json::str(format!("{:016x}", total.to_bits()))),
            ("memo_hits", Json::from(hits)),
            ("memo_misses", Json::from(misses)),
        ]));
        timing.push((name, Json::from(wall_ms)));
    }
    assert!(
        totals[2] < totals[1] && totals[1] < totals[0],
        "every optimization must help: {totals:?}"
    );
    let digest = fnv1a64(&bytes);
    println!("e2e digest {digest:016x}");

    // "report" holds only deterministic fields; "timing" comes last so CI
    // can strip it with a single sed before comparing two runs.
    let doc = Json::obj(vec![
        ("bench", Json::str("e2e")),
        ("device", Json::str(&gpu.config().name)),
        ("max_blocks", Json::from(gpu.policy().max_blocks)),
        ("engine_threads", Json::from(gpu.policy().threads)),
        (
            "report",
            Json::obj(vec![
                ("cells", Json::Arr(rows)),
                ("digest", Json::str(format!("{digest:016x}"))),
            ]),
        ),
        ("timing", Json::obj(timing)),
    ]);
    let out_path = env::or_die(env::path(env::BENCH_OUT)).unwrap_or_else(|| {
        std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json"))
    });
    match std::fs::write(&out_path, format!("{doc}\n")) {
        Ok(()) => println!("  wrote {}", out_path.display()),
        Err(e) => {
            eprintln!("e2e bench: cannot write {}: {e}", out_path.display());
            std::process::exit(1);
        }
    }
}
