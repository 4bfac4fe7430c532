//! Reproduces **Table IV** (and the timing series behind **Fig. 7**):
//! per-layer deformable-operation latency on the RTX 2080 Ti (PyTorch 2.1
//! in the paper) for the PyTorch baseline, `tex2D`, and `tex2D++`.
//!
//! Paper reference rows: speedups 1.10-1.30x, smaller than on Xavier
//! because the discrete GPU's bandwidth and SM count hide more of the
//! sampling inefficiency. We reproduce the shape: tex2D < PyTorch,
//! tex2D++ <= tex2D, with a thinner margin than Table II.

use defcon_bench::{f2, sampler_grid_ms, speedup, Table};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_kernels::paper_layer_sweep;

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let gpu = Gpu::new(DeviceConfig::rtx2080ti());
    println!(
        "# Table IV — deformable operation latency on {}",
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
    let shapes = paper_layer_sweep();
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
    }
    table.print();
}
