//! Reproduces **Fig. 9**: per-layer speedup of the algorithmic
//! optimizations on Xavier — for each Table II layer shape, the deformable
//! operation under {interval-search baseline, +bounded, +lightweight} ×
//! {PyTorch, tex2D, tex2D++}.
//!
//! Paper findings reproduced here: (1) texture kernels speed up every
//! configuration; (2) the lightweight offset predictor delivers the largest
//! jump (>2×); (3) *bounded offsets do not speed up the GPU* (unlike on
//! FPGA accelerators) — bounding changes access locality slightly but the
//! texture cache already absorbs it.
//!
//! `DEFCON_JSON=1` appends a one-line JSON report: per layer, the
//! baseline's ms and every column's ms and speedup as round-trip f64s.

use defcon_bench::{emit_json, speedup, Table, SAMPLERS};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_kernels::op::{synthetic_inputs, OffsetPredictorKind};
use defcon_kernels::{paper_layer_sweep, DeformConvOp, DeformLayerShape};
use defcon_support::json::Json;
use defcon_support::par;
use defcon_tensor::sample::OffsetTransform;

/// The algorithmic variants, in column order: name, offset bound,
/// offset predictor.
const VARIANTS: [(&str, Option<f32>, OffsetPredictorKind); 3] = [
    ("search", None, OffsetPredictorKind::Standard),
    ("bounded", Some(7.0), OffsetPredictorKind::Standard),
    ("light", None, OffsetPredictorKind::Lightweight),
];

/// Total simulated ms of one cell of a layer's row: `None` is the PyTorch
/// baseline the row is normalized by, `Some((variant, sampler))` a column.
fn cell_ms(gpu: &Gpu, shape: DeformLayerShape, cell: Option<(usize, usize)>) -> f64 {
    let Some((v, m)) = cell else {
        let (x, offsets) = synthetic_inputs(&shape, 8.0, 99);
        return DeformConvOp::baseline(shape)
            .simulate_total(gpu, &x, &offsets)
            .0;
    };
    let (_, bounded, predictor) = VARIANTS[v];
    // Bounding constrains the learned offsets the kernel sees.
    let spread = bounded.unwrap_or(8.0).min(8.0);
    let (x, offsets) = synthetic_inputs(&shape, spread, 99);
    let transform = match bounded {
        Some(p) => OffsetTransform::Bounded(p),
        None => OffsetTransform::Identity,
    };
    DeformConvOp {
        method: SAMPLERS[m],
        offset_predictor: predictor,
        offset_transform: transform,
        ..DeformConvOp::baseline(shape)
    }
    .simulate_total(gpu, &x, &offsets)
    .0
}

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    println!("# Fig. 9 — speedup of algorithmic optimizations on {} (baseline = PyTorch, unbounded, standard offset conv; per layer)\n", gpu.config().name);

    let mut headers = vec!["Layer".to_string()];
    for (vname, _, _) in &VARIANTS {
        for m in &SAMPLERS {
            headers.push(format!("{vname}+{}", m.name()));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    // One row per layer: the baseline, then every (variant, sampler)
    // column; each cell is one item of the worker map.
    let columns: Vec<Option<(usize, usize)>> = std::iter::once(None)
        .chain((0..VARIANTS.len()).flat_map(|v| (0..SAMPLERS.len()).map(move |m| Some((v, m)))))
        .collect();
    let shapes = paper_layer_sweep();
    let cells: Vec<(DeformLayerShape, Option<(usize, usize)>)> = shapes
        .iter()
        .flat_map(|&shape| columns.iter().map(move |&c| (shape, c)))
        .collect();
    let ms = par::map(&cells, gpu.policy().threads, |&(shape, c)| {
        cell_ms(&gpu, shape, c)
    });
    let mut json_rows = Vec::new();
    for (shape, row_ms) in shapes.iter().zip(ms.chunks(columns.len())) {
        let baseline = row_ms[0];
        let layer = format!("{},{},{},{}", shape.c_in, shape.c_out, shape.h, shape.w);
        let mut row = vec![layer.clone()];
        row.extend(row_ms[1..].iter().map(|ms| speedup(baseline / ms)));
        table.row(&row);
        let cells = headers[1..].iter().zip(&row_ms[1..]).map(|(name, &ms)| {
            Json::obj(vec![
                ("column", Json::str(name)),
                ("ms", Json::from(ms)),
                ("speedup", Json::from(baseline / ms)),
            ])
        });
        json_rows.push(Json::obj(vec![
            ("layer", Json::str(layer)),
            ("baseline_ms", Json::from(baseline)),
            ("cells", Json::Arr(cells.collect())),
        ]));
    }
    table.print();
    emit_json(&Json::obj(vec![
        ("experiment", Json::str("fig9")),
        ("device", Json::str(&gpu.config().name)),
        ("rows", Json::Arr(json_rows)),
    ]));
}
