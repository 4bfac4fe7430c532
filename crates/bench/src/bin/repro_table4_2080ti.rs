//! Reproduces **Table IV** (and the timing series behind **Fig. 7**):
//! per-layer deformable-operation latency on the RTX 2080 Ti (PyTorch 2.1
//! in the paper) for the PyTorch baseline, `tex2D`, and `tex2D++`.
//!
//! Paper reference rows: speedups 1.10-1.30x, smaller than on Xavier
//! because the discrete GPU's bandwidth and SM count hide more of the
//! sampling inefficiency. We reproduce the shape: tex2D < PyTorch,
//! tex2D++ <= tex2D, with a thinner margin than Table II.
//!
//! `DEFCON_TINY=1` shrinks the sweep; `DEFCON_JSON=1` appends a one-line
//! JSON report (see `defcon_bench` docs).

use defcon_gpusim::{DeviceConfig, Gpu};

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    defcon_bench::sampler_table("table4", "Table IV", &Gpu::new(DeviceConfig::rtx2080ti()));
}
