//! Reproduces **Fig. 8**: tile-size selection for `tex2D` and `tex2D++`.
//!
//! Sweeps the whole thread-block tile space exhaustively (ground truth),
//! then shows the Bayesian autotuner reaching the best tile within a small
//! evaluation budget — the paper's ytopt workflow. The paper's takeaway:
//! "tile size significantly affects the resulting speedup, and our
//! autotuning-based tile size search results in the best performance."
//!
//! `DEFCON_JSON=1` appends a one-line JSON report of every printed cell,
//! each ms and speedup as a round-trip f64.

use defcon_bench::{emit_json, f2, speedup, Table};
use defcon_core::autotune::{Autotuner, Strategy};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_kernels::op::synthetic_inputs;
use defcon_kernels::{DeformConvOp, DeformLayerShape, SamplingMethod, TileConfig};
use defcon_support::json::Json;

/// A `{tile, ms}` JSON cell.
fn tile_cell(tile: TileConfig, ms: f64) -> Json {
    Json::obj(vec![
        ("tile", Json::str(tile.to_string())),
        ("ms", Json::from(ms)),
    ])
}

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    // A representative mid-network layer.
    let shape = DeformLayerShape::same3x3(256, 256, 69, 69);
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 88);
    println!(
        "# Fig. 8 — tile-size selection for tex2D / tex2D++ on {} (layer 256,256,69,69)\n",
        gpu.config().name
    );

    // Baseline for the speedup axis: the PyTorch operator at default tiles.
    let baseline_ms = DeformConvOp::baseline(shape)
        .simulate_total(&gpu, &x, &offsets)
        .0;

    let time = |t: TileConfig, method: SamplingMethod| -> f64 {
        DeformConvOp {
            tile: t,
            method,
            ..DeformConvOp::baseline(shape)
        }
        .simulate_total(&gpu, &x, &offsets)
        .0
    };

    let mut json_methods = Vec::new();
    for method in [SamplingMethod::Tex2d, SamplingMethod::Tex2dPlusPlus] {
        let space = TileConfig::search_space();
        let exhaustive = Autotuner {
            strategy: Strategy::Exhaustive,
            budget: 0,
            seed: 0,
        }
        .run(&space, |t| time(t, method));
        println!(
            "## {} — speedup over PyTorch per tile (exhaustive sweep)",
            method.name()
        );
        let mut table = Table::new(&["tile", "ms", "speedup"]);
        let mut evs = exhaustive.evaluations.clone();
        evs.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut json_rows = Vec::new();
        for (t, ms) in &evs {
            table.row(&[t.to_string(), f2(*ms), speedup(baseline_ms / ms)]);
            json_rows.push(Json::obj(vec![
                ("tile", Json::str(t.to_string())),
                ("ms", Json::from(*ms)),
                ("speedup", Json::from(baseline_ms / ms)),
            ]));
        }
        table.print();

        let bo = Autotuner::bayesian(10, 42).run(&space, |t| time(t, method));
        println!(
            "\nBayesian autotuner (budget 10/{}): best tile {} at {} ms (exhaustive best: {} at {} ms)\n",
            space.len(),
            bo.best,
            f2(bo.best_value),
            exhaustive.best,
            f2(exhaustive.best_value),
        );
        let worst = evs.last().unwrap();
        println!(
            "tile choice spread: best {} = {}, worst {} = {} ({:.2}x apart)\n",
            exhaustive.best,
            f2(exhaustive.best_value),
            worst.0,
            f2(worst.1),
            worst.1 / exhaustive.best_value
        );
        json_methods.push(Json::obj(vec![
            ("method", Json::str(method.name())),
            ("rows", Json::Arr(json_rows)),
            ("bayesian_best", tile_cell(bo.best, bo.best_value)),
            (
                "exhaustive_best",
                tile_cell(exhaustive.best, exhaustive.best_value),
            ),
            ("worst", tile_cell(worst.0, worst.1)),
            ("spread", Json::from(worst.1 / exhaustive.best_value)),
        ]));
    }
    emit_json(&Json::obj(vec![
        ("experiment", Json::str("fig8")),
        ("device", Json::str(&gpu.config().name)),
        ("baseline_ms", Json::from(baseline_ms)),
        ("methods", Json::Arr(json_methods)),
    ]));
}
