//! The engine's determinism contract, checked on the paper's Table II
//! layer set with the real kernels (software im2col, fused texture, GEMM
//! epilogue) — not toy traces: a launch is one serial walk of its sampled
//! blocks, and the simulator's parallelism is `par::map` across
//! independent launches, so the `KernelReport` JSON is byte-identical
//! whatever the thread count.

use defcon::gpusim::trace::BlockTrace;
use defcon::kernels::fused::FusedTexDeformKernel;
use defcon::kernels::gemm_kernel::GemmKernel;
use defcon::kernels::im2col::Im2colDeformKernel;
use defcon::prelude::*;
use defcon_support::json::ToJson;
use defcon_support::par;
use std::sync::OnceLock;

/// The three kernel stages of one Table II layer, boxed behind the trace
/// interface so a worker map can launch them.
fn layer_kernels(
    shape: DeformLayerShape,
    gpu: &Gpu,
) -> Vec<Box<dyn BlockTrace + Send + Sync + '_>> {
    let cfg = gpu.config();
    // The offsets and the im2col kernel's operator are leaked so the
    // kernels (which borrow them) can be returned; the test process owns a
    // handful of layers only.
    let offsets: &'static _ = Box::leak(Box::new(synthetic_offsets(&shape, 4.0, 0xDEFC)));
    let software: &'static _ = Box::leak(Box::new(DeformConvOp::baseline(shape)));
    let tex2d = DeformConvOp {
        method: SamplingMethod::Tex2d,
        ..DeformConvOp::baseline(shape)
    };
    let im2col = Im2colDeformKernel::new(software, offsets, cfg.texture_limits())
        .expect("texture limits exceeded");
    let fused = FusedTexDeformKernel::new(&tex2d, offsets, cfg).expect("texture limits exceeded");
    vec![
        Box::new(im2col),
        Box::new(fused),
        Box::new(GemmKernel::for_conv(&shape)),
    ]
}

/// Table II layers small enough to iterate in a debug-build test; the grid
/// sizes still far exceed the 96-block sampling budget, so every launch
/// exercises sampling and extrapolation.
fn table2_layers() -> Vec<DeformLayerShape> {
    paper_layer_sweep()
        .into_iter()
        .filter(|s| s.h <= 69)
        .collect()
}

/// The layer set's kernels and their reference reports, built once per
/// test process: every launch walked in order on the calling thread by a
/// one-thread GPU.
struct Reference {
    kernels: Vec<Box<dyn BlockTrace + Send + Sync>>,
    serial: Vec<String>,
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let gpu: &'static Gpu = Box::leak(Box::new(gpu(1)));
        let kernels: Vec<_> = table2_layers()
            .into_iter()
            .flat_map(|shape| layer_kernels(shape, gpu))
            .collect();
        let serial = kernels
            .iter()
            .map(|k| gpu.launch(k.as_ref()).to_json().to_string())
            .collect();
        Reference { kernels, serial }
    })
}

fn gpu(threads: usize) -> Gpu {
    Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(threads),
    )
}

/// The layer set fanned out on `threads` workers, each launch on a GPU
/// whose policy asks for that many threads.
fn fanned_out(threads: usize) -> Vec<String> {
    let gpu = gpu(threads);
    par::map(&reference().kernels, gpu.policy().threads, |k| {
        gpu.launch(k.as_ref()).to_json().to_string()
    })
}

/// One thread walking the layer set returns the reference bytes even when
/// its GPU's policy asks for 8 workers: the engine never reads the worker
/// count, so a launch is the serial walk whatever the policy says.
#[test]
fn one_thread_reports_are_byte_identical_to_serial() {
    let reference = reference();
    let gpu = gpu(8);
    for (kernel, serial) in reference.kernels.iter().zip(&reference.serial) {
        let report = gpu.launch(kernel.as_ref()).to_json().to_string();
        assert_eq!(&report, serial, "{}", kernel.label());
    }
}

/// A launch sharded into bands could move its cycles by up to 1 % at 4
/// threads; the serial walk leaves no drift, so 4 workers must return the
/// reference bytes.
#[test]
fn four_thread_cycles_stay_within_one_percent_of_serial() {
    assert_eq!(fanned_out(4), reference().serial);
}

/// 2 and 8 workers return the reference bytes too (1 and 4 are checked
/// above).
#[test]
fn reports_are_byte_identical_at_every_thread_count() {
    for threads in [2usize, 8] {
        assert_eq!(fanned_out(threads), reference().serial, "threads={threads}");
    }
}

/// A fixed thread count is deterministic run to run, on a real layer.
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
