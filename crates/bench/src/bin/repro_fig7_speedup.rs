//! Reproduces **Fig. 7**: layer-wise speedup of the deformable operation on
//! the Xavier model — `tex2D` and `tex2D++` relative to the PyTorch
//! baseline, per Table II layer shape.
//!
//! Paper reference: geometric-mean speedups ≈ 1.27× (tex2D) and ≈ 1.39×
//! (tex2D++), roughly flat across layer shapes with a dip at the largest
//! feature map.
//!
//! `DEFCON_TINY=1` shrinks the sweep; `DEFCON_JSON=1` appends a one-line
//! JSON report (see `defcon_bench` docs).

use defcon_bench::{emit_json, layer_sweep, sampler_grid_ms, speedup, Table};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_support::json::Json;

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    println!(
        "# Fig. 7 — deformable operation speedup over PyTorch on {}\n",
        gpu.config().name
    );

    let mut table = Table::new(&["Layer (In,Out,H,W)", "tex2D", "tex2D++"]);
    let mut json_rows = Vec::new();
    let mut geo2 = 1.0f64;
    let mut geopp = 1.0f64;
    let sweep = layer_sweep();
    let n = sweep.len() as f64;
    for (shape, [sw, t2, tpp]) in sweep.iter().zip(sampler_grid_ms(&gpu, &sweep)) {
        let s2 = sw / t2;
        let spp = sw / tpp;
        geo2 *= s2.powf(1.0 / n);
        geopp *= spp.powf(1.0 / n);
        let layer = format!("{},{},{},{}", shape.c_in, shape.c_out, shape.h, shape.w);
        table.row(&[layer.clone(), speedup(s2), speedup(spp)]);
        json_rows.push(Json::obj(vec![
            ("layer", Json::str(layer)),
            ("tex2d", Json::from(s2)),
            ("tex2dpp", Json::from(spp)),
        ]));
    }
    table.row(&["geo-mean".into(), speedup(geo2), speedup(geopp)]);
    table.print();
    emit_json(&Json::obj(vec![
        ("experiment", Json::str("fig7")),
        ("device", Json::str(&gpu.config().name)),
        ("rows", Json::Arr(json_rows)),
        ("geomean_tex2d", Json::from(geo2)),
        ("geomean_tex2dpp", Json::from(geopp)),
    ]));
}
