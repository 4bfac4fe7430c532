//! Cross-backend analogue of Tables II–IV: the paper's per-layer
//! deformable-operation latency sweep, run through the `Backend` trait on
//! both execution substrates — the warp-level GPU timing simulator
//! (Jetson AGX Xavier, RTX 2080 Ti) and its paired tiled-dataflow
//! accelerator model (DCN-Accel-Edge, DCN-Accel-DC).
//!
//! For every layer the three kernel paths (PyTorch-style software
//! bilinear, `tex2D`, `tex2D++`) are timed end to end (offset conv +
//! deformable sampling + GEMM) on each substrate; the last column is the
//! cross-substrate ratio at the best path, gpusim `tex2D++` over accel
//! `tex2D++`. Both substrates run the *same* operator — the functional
//! outputs are byte-identical (`tests/backend_conformance.rs`); only the
//! timing models differ.
//!
//! `DEFCON_TINY=1` shrinks the sweep; `DEFCON_JSON=1` appends a one-line
//! JSON report; `DEFCON_BENCH_OUT=<path>` also writes that report to a
//! file (the CI release gate runs the binary twice and byte-compares the
//! two files).

use defcon_accel::{Accel, AccelConfig};
use defcon_bench::{emit_json, f2, layer_sweep, speedup, Table, SAMPLERS};
use defcon_core::autotune::{Autotuner, Strategy};
use defcon_gpusim::{default_threads, DeviceConfig, Gpu};
use defcon_kernels::backend::Backend;
use defcon_kernels::op::synthetic_offsets;
use defcon_kernels::{DeformConvOp, DeformLayerShape, SamplingMethod, TileConfig};
use defcon_support::json::Json;
use defcon_support::{env, par};

/// Times one `(layer, method)` cell on a backend: total milliseconds for
/// the offset conv plus the deformable stage, through the trait surface.
fn time_cell(backend: &dyn Backend, op: &DeformConvOp) -> f64 {
    backend
        .launch_total(op, &synthetic_offsets(&op.shape, 4.0, 2024))
        .unwrap_or_else(|e| {
            eprintln!(
                "{} cannot run {}x{} {}: {e}",
                backend.backend_name(),
                op.shape.c_in,
                op.shape.c_out,
                op.method.name()
            );
            std::process::exit(1);
        })
        .0
}

/// The accel runs each layer at its exhaustively tuned tile: the standard
/// autotuner search space, filtered to what the on-chip buffers admit
/// (`tile_space`), minimized under the analytic cycle objective. This is
/// the paper's tile search transferred wholesale to the accel substrate —
/// and it is what makes the full 512-channel layers schedulable at all
/// (their 16×16 default halo overflows the edge-class input buffer).
fn tuned_tile(accel: &Accel, op: &DeformConvOp) -> TileConfig {
    let space = accel.tile_space(op);
    if space.is_empty() {
        eprintln!(
            "{}: no admissible tile for {}x{} {}x{}",
            accel.config().name,
            op.shape.c_in,
            op.shape.c_out,
            op.shape.h,
            op.shape.w
        );
        std::process::exit(1);
    }
    let tuner = Autotuner {
        strategy: Strategy::Exhaustive,
        budget: 0,
        seed: 0,
    };
    tuner.run(&space, accel.tile_objective(op)).best
}

/// One layer of a device pairing: the accel's tuned tile and the three
/// samplers' total ms on each substrate.
struct Row {
    tile: TileConfig,
    gpusim: [f64; 3],
    accel: [f64; 3],
}

/// Times one layer on both substrates of a pairing.
fn time_row(gpu: &Gpu, accel: &Accel, shape: DeformLayerShape) -> Row {
    let op_for = |m| DeformConvOp {
        method: m,
        ..DeformConvOp::baseline(shape)
    };
    // One tile search per layer (the objective is method-independent
    // in the halo/buffer dimension that decides admission).
    let tile = tuned_tile(accel, &op_for(SamplingMethod::Tex2dPlusPlus));
    Row {
        tile,
        gpusim: SAMPLERS.map(|m| time_cell(gpu, &op_for(m))),
        accel: SAMPLERS.map(|m| time_cell(accel, &DeformConvOp { tile, ..op_for(m) })),
    }
}

/// Prints one gpusim/accel device pairing and returns its JSON section.
fn print_pair(gpu: &Gpu, accel: &Accel, shapes: &[DeformLayerShape], rows: &[Row]) -> Json {
    println!(
        "# Backends — deformable operation latency: {} vs {}",
        gpu.config().name,
        accel.config().name
    );
    println!("# (offset conv + deformable sampling + GEMM, batch 1, 3x3, G=1)\n");
    let mut table = Table::new(&[
        "In ch",
        "Out ch",
        "H",
        "W",
        "gpusim sw (ms)",
        "gpusim t2 (ms)",
        "gpusim t2++ (ms)",
        "accel tile",
        "accel sw (ms)",
        "accel t2 (ms)",
        "accel t2++ (ms)",
        "gpusim/accel",
    ]);
    let mut json_rows = Vec::new();
    for (shape, row) in shapes.iter().zip(rows) {
        let (tile, [gsw, gt2, gtpp], [asw, at2, atpp]) = (row.tile, row.gpusim, row.accel);
        table.row(&[
            shape.c_in.to_string(),
            shape.c_out.to_string(),
            shape.h.to_string(),
            shape.w.to_string(),
            f2(gsw),
            f2(gt2),
            f2(gtpp),
            format!("{}x{}", tile.h, tile.w),
            f2(asw),
            f2(at2),
            f2(atpp),
            speedup(gtpp / atpp),
        ]);
        json_rows.push(Json::obj(vec![
            ("c_in", Json::from(shape.c_in)),
            ("c_out", Json::from(shape.c_out)),
            ("h", Json::from(shape.h)),
            ("w", Json::from(shape.w)),
            ("gpusim_pytorch_ms", Json::from(gsw)),
            ("gpusim_tex2d_ms", Json::from(gt2)),
            ("gpusim_tex2dpp_ms", Json::from(gtpp)),
            ("accel_tile_h", Json::from(tile.h)),
            ("accel_tile_w", Json::from(tile.w)),
            ("accel_pytorch_ms", Json::from(asw)),
            ("accel_tex2d_ms", Json::from(at2)),
            ("accel_tex2dpp_ms", Json::from(atpp)),
            ("cross_speedup", Json::from(gtpp / atpp)),
        ]));
    }
    table.print();
    println!();
    Json::obj(vec![
        ("gpu", Json::str(&gpu.config().name)),
        ("accel", Json::str(&accel.config().name)),
        ("rows", Json::Arr(json_rows)),
    ])
}

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let pairs = [
        (
            Gpu::new(DeviceConfig::xavier_agx()),
            Accel::new(AccelConfig::edge()),
        ),
        (
            Gpu::new(DeviceConfig::rtx2080ti()),
            Accel::new(AccelConfig::datacenter()),
        ),
    ];
    // Every (pairing, layer) row is one item of the worker map.
    let shapes = layer_sweep();
    let cells: Vec<(usize, DeformLayerShape)> = (0..pairs.len())
        .flat_map(|p| shapes.iter().map(move |&shape| (p, shape)))
        .collect();
    let rows = par::map(&cells, default_threads(), |&(p, shape)| {
        time_row(&pairs[p].0, &pairs[p].1, shape)
    });
    let sections: Vec<Json> = pairs
        .iter()
        .zip(rows.chunks(shapes.len()))
        .map(|((gpu, accel), rows)| print_pair(gpu, accel, &shapes, rows))
        .collect();
    let report = Json::obj(vec![
        ("experiment", Json::str("backends")),
        ("device", Json::str("Jetson-AGX-Xavier")),
        ("pairs", Json::Arr(sections)),
    ]);
    if let Some(path) = env::or_die(env::path(env::BENCH_OUT)) {
        std::fs::write(&path, format!("{report}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("report written to {}", path.display());
    }
    emit_json(&report);
}
