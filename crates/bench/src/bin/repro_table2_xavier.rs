//! Reproduces **Table II** (and the timing series behind **Fig. 7**):
//! per-layer deformable-operation latency on the Jetson AGX Xavier for the
//! PyTorch baseline, `tex2D`, and `tex2D++`.
//!
//! Paper reference rows (In, Out, H, W → PyTorch / tex2D / tex2D++ ms):
//! `128,128,138 → 6.87/6.01/4.89`, …, `512,512,18 → 97.0/72.33/69.48`,
//! speedups 1.33–1.41×. We reproduce the *shape*: tex2D < PyTorch,
//! tex2D++ ≤ tex2D, speedups in the same band.
//!
//! `DEFCON_TINY=1` shrinks the sweep; `DEFCON_JSON=1` appends a one-line
//! JSON report (see `defcon_bench` docs).

use defcon_bench::{emit_json, f2, layer_sweep, sampler_grid_ms, speedup, Table};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_support::json::Json;

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    println!(
        "# Table II — deformable operation latency on {}",
        gpu.config().name
    );
    println!("# (offset conv + deformable sampling + GEMM, batch 1, 3x3, G=1)\n");

    let mut table = Table::new(&[
        "In ch",
        "Out ch",
        "H",
        "W",
        "PyTorch (ms)",
        "tex2D (ms)",
        "tex2D++ (ms)",
        "Speedup w.r. Torch",
    ]);
    let mut json_rows = Vec::new();
    let shapes = layer_sweep();
    for (shape, [sw, t2, tpp]) in shapes.iter().zip(sampler_grid_ms(&gpu, &shapes)) {
        table.row(&[
            shape.c_in.to_string(),
            shape.c_out.to_string(),
            shape.h.to_string(),
            shape.w.to_string(),
            f2(sw),
            f2(t2),
            f2(tpp),
            speedup(sw / tpp),
        ]);
        json_rows.push(Json::obj(vec![
            ("c_in", Json::from(shape.c_in)),
            ("c_out", Json::from(shape.c_out)),
            ("h", Json::from(shape.h)),
            ("w", Json::from(shape.w)),
            ("pytorch_ms", Json::from(sw)),
            ("tex2d_ms", Json::from(t2)),
            ("tex2dpp_ms", Json::from(tpp)),
            ("speedup", Json::from(sw / tpp)),
        ]));
    }
    table.print();
    emit_json(&Json::obj(vec![
        ("experiment", Json::str("table2")),
        ("device", Json::str(&gpu.config().name)),
        ("rows", Json::Arr(json_rows)),
    ]));
}
