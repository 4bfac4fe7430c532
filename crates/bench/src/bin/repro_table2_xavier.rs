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

use defcon_gpusim::{DeviceConfig, Gpu};

fn main() {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    defcon_bench::sampler_table("table2", "Table II", &Gpu::new(DeviceConfig::xavier_agx()));
}
