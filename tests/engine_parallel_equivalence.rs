//! The parallel engine's determinism contract, checked on the paper's
//! Table II layer set with the real kernels (software im2col, fused
//! texture, GEMM epilogue) — not toy traces:
//!
//! * `threads = 1`: [`Gpu::launch`] must produce **byte-identical**
//!   `KernelReport` JSON to the reference [`Gpu::launch_serial`] path — a
//!   single band shares one launch-persistent L2 and accumulates in the
//!   exact serial order, so there is nothing to tolerate;
//! * `threads = 4`: each worker's private cold L2 shard loses cross-band
//!   reuse, so estimates may move — but cycles (and therefore time) must
//!   stay within the documented ≤ 1 % tolerance, and the merged `u64`
//!   counters that don't depend on L2 outcomes must match exactly.

use defcon::gpusim::trace::BlockTrace;
use defcon::kernels::fused::FusedTexDeformKernel;
use defcon::kernels::gemm_kernel::GemmKernel;
use defcon::kernels::im2col::Im2colDeformKernel;
use defcon::prelude::*;
use defcon_support::json::ToJson;

/// The three kernel stages of one Table II layer, boxed behind the trace
/// interface so each runs through both engine paths.
fn layer_kernels(shape: DeformLayerShape, gpu: &Gpu) -> Vec<Box<dyn BlockTrace + '_>> {
    let cfg = gpu.config();
    // The inputs and the im2col kernel's operator are leaked so the
    // kernels (which borrow them) can be returned; the test process owns a
    // handful of layers only.
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 0xDEFC);
    let x: &'static _ = Box::leak(Box::new(x));
    let offsets: &'static _ = Box::leak(Box::new(offsets));
    let software: &'static _ = Box::leak(Box::new(DeformConvOp::baseline(shape)));
    let tex2d = DeformConvOp {
        method: SamplingMethod::Tex2d,
        ..DeformConvOp::baseline(shape)
    };
    let im2col = Im2colDeformKernel::new(software, x, offsets, cfg.texture_limits())
        .expect("texture limits exceeded");
    let fused =
        FusedTexDeformKernel::new(&tex2d, x, offsets, cfg).expect("texture limits exceeded");
    vec![
        Box::new(im2col),
        Box::new(fused),
        Box::new(GemmKernel::for_conv(&shape)),
    ]
}

/// Table II layers small enough to iterate in a debug-build test; the grid
/// sizes still far exceed the 96-block sampling budget, so every launch
/// exercises sampling, banding and extrapolation.
fn table2_layers() -> Vec<DeformLayerShape> {
    paper_layer_sweep()
        .into_iter()
        .filter(|s| s.h <= 69)
        .collect()
}

#[test]
fn one_thread_reports_are_byte_identical_to_serial() {
    let gpu = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(1),
    );
    for shape in table2_layers() {
        for kernel in layer_kernels(shape, &gpu) {
            let serial = gpu.launch_serial(kernel.as_ref()).to_json().to_string();
            let parallel = gpu.launch(kernel.as_ref()).to_json().to_string();
            assert_eq!(
                parallel, serial,
                "threads=1 diverged from serial on {shape:?}"
            );
        }
    }
}

#[test]
fn four_thread_cycles_stay_within_one_percent_of_serial() {
    let gpu = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(4),
    );
    for shape in table2_layers() {
        for kernel in layer_kernels(shape, &gpu) {
            let serial = gpu.launch_serial(kernel.as_ref());
            let parallel = gpu.launch(kernel.as_ref());

            let rel = (parallel.cycles - serial.cycles).abs() / serial.cycles;
            assert!(
                rel <= 0.01,
                "{}: 4-thread cycles diverged {:.3}% (> 1%) on {shape:?}",
                serial.kernel,
                rel * 100.0
            );
            let rel_t = (parallel.time_ms - serial.time_ms).abs() / serial.time_ms;
            assert!(
                rel_t <= 0.01,
                "{}: 4-thread time diverged {:.3}% (> 1%) on {shape:?}",
                serial.kernel,
                rel_t * 100.0
            );

            // Counters independent of L2 hit/miss outcomes are exact u64
            // merges — any drift here is a banding bug, not shard skew.
            let (s, p) = (&serial.counters, &parallel.counters);
            assert_eq!(s.flops, p.flops, "{shape:?}");
            assert_eq!(s.gld_requests, p.gld_requests, "{shape:?}");
            assert_eq!(s.gld_transactions, p.gld_transactions, "{shape:?}");
            assert_eq!(s.tex_requests, p.tex_requests, "{shape:?}");
            assert_eq!(s.l1_accesses, p.l1_accesses, "{shape:?}");
            assert_eq!(s.l1_hits, p.l1_hits, "{shape:?}");
            assert_eq!(serial.grid_blocks, parallel.grid_blocks);
            assert_eq!(serial.simulated_blocks, parallel.simulated_blocks);
        }
    }
}

/// A fixed thread count must be deterministic run to run — the contract's
/// "deterministic for fixed N" clause, on a real layer.
#[test]
fn fixed_thread_count_is_reproducible() {
    let shape = DeformLayerShape::same3x3(128, 128, 69, 69);
    for threads in [2usize, 4, 8] {
        let gpu = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy::default().with_threads(threads),
        );
        for kernel in layer_kernels(shape, &gpu) {
            let a = gpu.launch(kernel.as_ref()).to_json().to_string();
            let b = gpu.launch(kernel.as_ref()).to_json().to_string();
            assert_eq!(a, b, "threads={threads} not reproducible");
        }
    }
}
