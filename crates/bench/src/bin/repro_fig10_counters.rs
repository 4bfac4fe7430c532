//! Reproduces **Fig. 10**: nvprof-style hardware counters of the
//! *sampling stage* — MFLOP, global-load transactions per request, GLD
//! efficiency, and texture load requests — for the PyTorch software-bilinear
//! kernel vs. `tex2D` / `tex2D++`.
//!
//! Paper findings reproduced: PyTorch issues no texture requests and has
//! degraded GLD efficiency from the scattered 4-neighbour gathers; the
//! texture kernels issue texture requests, reach ~100 % GLD efficiency
//! (their only global loads are coalesced offsets/weights), and execute
//! roughly 4× fewer floating-point operations because bilinear interpolation
//! moved into the texture filter hardware.
//!
//! `DEFCON_TINY=1` shrinks the sweep; `DEFCON_JSON=1` appends a one-line
//! JSON report (see `defcon_bench` docs).

use defcon_bench::{emit_json, f2, layer_sweep, Table, SAMPLERS};
use defcon_gpusim::{DeviceConfig, Gpu, KernelReport};
use defcon_kernels::fused::FusedTexDeformKernel;
use defcon_kernels::im2col::Im2colDeformKernel;
use defcon_kernels::op::{synthetic_inputs, DeformConvOp, SamplingMethod};
use defcon_kernels::DeformLayerShape;
use defcon_support::json::Json;
use defcon_support::par;
use defcon_tensor::Tensor;

/// The sampling-stage launch of one figure row on the layer's inputs: the
/// im2col kernel of a sampler (`Some`), or DEFCON's fused tex2D kernel
/// (`None`).
fn sampling_report(
    gpu: &Gpu,
    shape: DeformLayerShape,
    (x, offsets): &(Tensor, Tensor),
    sampler: Option<SamplingMethod>,
) -> KernelReport {
    let with_method = |method| DeformConvOp {
        method,
        ..DeformConvOp::baseline(shape)
    };
    let Some(method) = sampler else {
        // DEFCON's deployed kernel fuses sampling into the convolution; its
        // only global loads are fully coalesced offsets and weights — this
        // is the configuration whose GLD efficiency the paper reports as
        // reaching 100 %.
        let tex2d = with_method(SamplingMethod::Tex2d);
        let mut fused =
            FusedTexDeformKernel::new(&tex2d, x, offsets, gpu.config()).expect("texture limits");
        // The figure reports the unsplit kernel (one output-channel block);
        // its golden pins these counters.
        fused.co_blocks = 1;
        return gpu.launch(&fused);
    };
    let op = with_method(method);
    let kernel = Im2colDeformKernel::new(&op, x, offsets, gpu.config().texture_limits())
        .expect("texture limits");
    gpu.launch(&kernel)
}

fn counter_row(layer: &str, name: &str, r: &KernelReport) -> Json {
    Json::obj(vec![
        ("layer", Json::str(layer)),
        ("impl", Json::str(name)),
        ("mflop", Json::from(r.counters.mflop())),
        (
            "gld_trans_per_req",
            Json::from(r.counters.gld_transactions_per_request()),
        ),
        ("gld_efficiency", Json::from(r.counters.gld_efficiency())),
        ("tex_requests", Json::from(r.counters.tex_requests)),
        ("tex_hit_rate", Json::from(r.counters.tex_hit_rate())),
    ])
}

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    println!(
        "# Fig. 10 — sampling-stage counters on {} (per layer, per implementation)\n",
        gpu.config().name
    );

    let mut table = Table::new(&[
        "Layer",
        "impl",
        "MFLOP",
        "GLD trans/req",
        "GLD eff (%)",
        "tex requests",
        "tex hit rate",
    ]);
    // Per layer: the three samplers' im2col launches, then the fused
    // kernel; each launch is one item of the worker map.
    let rows: Vec<(&str, Option<SamplingMethod>)> = SAMPLERS
        .iter()
        .map(|&m| (m.name(), Some(m)))
        .chain([("tex2D fused", None)])
        .collect();
    let shapes = layer_sweep();
    let threads = gpu.policy().threads;
    let inputs = par::map(&shapes, threads, |shape| synthetic_inputs(shape, 4.0, 123));
    let cells: Vec<(usize, Option<SamplingMethod>)> = (0..shapes.len())
        .flat_map(|i| rows.iter().map(move |&(_, sampler)| (i, sampler)))
        .collect();
    let reports = par::map(&cells, threads, |&(i, sampler)| {
        sampling_report(&gpu, shapes[i], &inputs[i], sampler)
    });
    let mut json_rows = Vec::new();
    for (shape, layer_reports) in shapes.iter().zip(reports.chunks(rows.len())) {
        let layer = format!("{},{},{},{}", shape.c_in, shape.c_out, shape.h, shape.w);
        for (&(name, _), r) in rows.iter().zip(layer_reports) {
            table.row(&[
                layer.clone(),
                name.into(),
                f2(r.counters.mflop()),
                f2(r.counters.gld_transactions_per_request()),
                f2(r.counters.gld_efficiency()),
                r.counters.tex_requests.to_string(),
                f2(r.counters.tex_hit_rate()),
            ]);
            json_rows.push(counter_row(&layer, name, r));
        }
    }
    table.print();
    emit_json(&Json::obj(vec![
        ("experiment", Json::str("fig10")),
        ("device", Json::str(&gpu.config().name)),
        ("rows", Json::Arr(json_rows)),
    ]));
}
