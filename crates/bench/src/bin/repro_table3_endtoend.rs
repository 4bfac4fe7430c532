//! Reproduces the latency side of **Table III**: end-to-end YOLACT++
//! (ResNet-101, 550×550) time on the Xavier model under the DEFCON
//! optimization lattice, with speedups over the YOLACT++ hand-placed
//! interval-3 baseline.
//!
//! Paper reference: baseline 478 ms; interval search alone 1.25×; search +
//! tex2D 1.44×; + boundary 1.45×; + lightweight 2.79×; everything 2.80×.
//! Accuracy columns of Table III are reproduced by `repro_table1` /
//! `repro_table5` on the trainable mini models (the full-size network is
//! latency-only on the simulator).
//!
//! `DEFCON_JSON=1` appends one JSON line holding every printed cell's
//! milliseconds as f64 bit patterns and an FNV-1a digest over them;
//! `crates/bench/tests/golden/table3_endtoend.json` pins that line at
//! every `DEFCON_THREADS` (ci.sh compares it byte for byte at 1 and 2).

use defcon_bench::{emit_json, f2, speedup, Table};
use defcon_core::pipeline::{DefconConfig, TileChoice};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_kernels::{SamplingMethod, TileConfig};
use defcon_models::zoo::{num_dcn, resnet_3x3_slots, simulate_network, DcnLayout};
use defcon_support::json::Json;
use defcon_support::par;
use defcon_support::rng::fnv1a64;

/// The JSON report: each printed cell as `(row, column, ms bits)` in print
/// order, plus the FNV-1a digest of the bits' little-endian bytes.
fn report_json(device: &str, cells: &[(String, &str, f64)]) -> Json {
    let bytes: Vec<u8> = cells
        .iter()
        .flat_map(|(_, _, ms)| ms.to_bits().to_le_bytes())
        .collect();
    Json::obj(vec![
        ("experiment", Json::str("table3")),
        ("device", Json::str(device)),
        (
            "cells",
            Json::Arr(
                cells
                    .iter()
                    .map(|(row, column, ms)| {
                        Json::obj(vec![
                            ("row", Json::str(row)),
                            ("column", Json::str(*column)),
                            ("ms_bits", Json::str(format!("{:016x}", ms.to_bits()))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("digest", Json::str(format!("{:016x}", fnv1a64(&bytes)))),
    ])
}

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    println!(
        "# Table III — end-to-end YOLACT++ (R101 @ 550) on {}",
        gpu.config().name
    );
    println!("# baseline = hand-placed interval-3 DCNs (10 layers), PyTorch kernels\n");

    let baseline_slots = resnet_3x3_slots(101, DcnLayout::Interval(3));
    let searched_slots = resnet_3x3_slots(101, DcnLayout::Searched);

    let sw = |bounded: Option<f32>, light: bool| DefconConfig {
        interval_search: true,
        bounded,
        lightweight: light,
        method: SamplingMethod::SoftwareBilinear,
        tile: TileChoice::Fixed(TileConfig::default16()),
        ..DefconConfig::baseline()
    };
    let tex = |method: SamplingMethod, bounded: Option<f32>, light: bool| DefconConfig {
        interval_search: true,
        bounded,
        lightweight: light,
        method,
        tile: TileChoice::Fixed(TileConfig::default16()),
        ..DefconConfig::baseline()
    };

    // (bounded, lightweight, texture) per row over the searched placement.
    let rows = [
        (None, false, false),
        (None, false, true),
        (Some(7.0f32), false, true),
        (None, true, true),
        (Some(7.0), true, true),
    ];
    // Every network the table prints, in print order: the baseline, then
    // per row the software network and, with texture, tex2D and tex2D++.
    // Each is one item of the worker map.
    let mut networks = vec![(&baseline_slots, DefconConfig::baseline())];
    for &(bounded, light, use_tex) in &rows {
        networks.push((&searched_slots, sw(bounded, light)));
        if use_tex {
            for method in [SamplingMethod::Tex2d, SamplingMethod::Tex2dPlusPlus] {
                networks.push((&searched_slots, tex(method, bounded, light)));
            }
        }
    }
    let totals = par::map(&networks, gpu.policy().threads, |(slots, config)| {
        simulate_network(&gpu, slots, config)
    });
    let mut totals = totals.into_iter();
    let mut next_total = || totals.next().expect("one total per network");

    let baseline_ms = next_total();
    println!(
        "YOLACT++ baseline: {} ms ({} DCN layers)\n",
        f2(baseline_ms),
        num_dcn(&baseline_slots)
    );

    let mut table = Table::new(&[
        "Search",
        "Boundary",
        "Light",
        "tex2D",
        "B.L. (ms)",
        "tex2D (ms)",
        "tex2D++ (ms)",
        "Speedup over YOLACT++",
    ]);
    let check = |b: bool| if b { "x".to_string() } else { String::new() };
    let mut cells = vec![("baseline".to_string(), "bl", baseline_ms)];

    // Row: baseline itself.
    table.row(&[
        check(false),
        check(false),
        check(false),
        check(false),
        f2(baseline_ms),
        "-".into(),
        "-".into(),
        speedup(1.0),
    ]);

    // Rows over the searched placement.
    for (bounded, light, use_tex) in rows {
        let bl_ms = next_total();
        let (t2_ms, tpp_ms) = if use_tex {
            (next_total(), next_total())
        } else {
            (f64::NAN, f64::NAN)
        };
        let best = if use_tex { tpp_ms } else { bl_ms };
        let row: Vec<&str> = [
            (true, "search"),
            (bounded.is_some(), "boundary"),
            (light, "light"),
            (use_tex, "tex"),
        ]
        .into_iter()
        .filter_map(|(on, name)| on.then_some(name))
        .collect();
        let row = row.join("+");
        cells.push((row.clone(), "bl", bl_ms));
        if use_tex {
            cells.push((row.clone(), "tex2d", t2_ms));
            cells.push((row, "tex2dpp", tpp_ms));
        }
        table.row(&[
            check(true),
            check(bounded.is_some()),
            check(light),
            check(use_tex),
            f2(bl_ms),
            if use_tex { f2(t2_ms) } else { "-".into() },
            if use_tex { f2(tpp_ms) } else { "-".into() },
            speedup(baseline_ms / best),
        ]);
    }
    table.print();
    println!(
        "\n(searched placement uses {} DCN layers vs {} in the baseline)",
        num_dcn(&searched_slots),
        num_dcn(&baseline_slots)
    );
    emit_json(&report_json(&gpu.config().name, &cells));
}
