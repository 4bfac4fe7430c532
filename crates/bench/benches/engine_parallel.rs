//! Wall-clock benchmark — and acceptance check — for the parallel
//! simulation engine: exhaustive-policy simulation of a 550×550 deformable
//! layer (the paper's full-resolution regime, where every one of the
//! thousands of grid blocks is traced) at 1 vs 4 worker threads.
//!
//! Run with:
//!
//! ```sh
//! cargo bench -p defcon-bench --offline --bench engine_parallel
//! ```
//!
//! Beyond the usual harness timings, `main` performs a hard check: on hosts
//! with ≥ 4 CPUs, the 4-thread launch must be ≥ 2× faster than the 1-thread
//! launch (the tentpole's speedup bar). On smaller hosts the measurement is
//! still printed, but the assertion is skipped — threads cannot beat the
//! physical core count.

use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon_kernels::fused::FusedTexDeformKernel;
use defcon_kernels::op::{synthetic_inputs, DeformConvOp};
use defcon_kernels::{DeformLayerShape, SamplingMethod};
use defcon_support::bench::Bench;
use std::time::Instant;

/// The 550×550 layer under test. 16 channels keeps a single exhaustive
/// launch in benchmark territory (seconds); the grid — ⌈550/16⌉² tiles —
/// is what exercises the banding, not the channel depth.
fn layer() -> DeformLayerShape {
    DeformLayerShape::same3x3(16, 16, 550, 550)
}

fn build_kernel<'a>(
    x: &'a defcon_tensor::Tensor,
    offsets: &'a defcon_tensor::Tensor,
    cfg: &DeviceConfig,
) -> FusedTexDeformKernel<'a> {
    let op = DeformConvOp {
        method: SamplingMethod::Tex2d,
        ..DeformConvOp::baseline(layer())
    };
    FusedTexDeformKernel::new(&op, x, offsets, cfg).expect("texture limits exceeded")
}

fn gpu_with_threads(threads: usize) -> Gpu {
    Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::exhaustive().with_threads(threads),
    )
}

fn bench_thread_scaling(bench: &mut Bench) {
    let (x, offsets) = synthetic_inputs(&layer(), 4.0, 0xBE);
    let cfg = DeviceConfig::xavier_agx();
    let kernel = build_kernel(&x, &offsets, &cfg);
    let mut group = bench.group("engine_parallel_550");
    group.sample_size(3);
    for threads in [1usize, 2, 4] {
        let gpu = gpu_with_threads(threads);
        group.bench_with_input(threads, &threads, |b, _| {
            b.iter(|| gpu.launch(&kernel));
        });
    }
    group.finish();
}

/// The tentpole's timed acceptance check.
fn speedup_check() {
    let (x, offsets) = synthetic_inputs(&layer(), 4.0, 0xBE);
    let cfg = DeviceConfig::xavier_agx();
    let kernel = build_kernel(&x, &offsets, &cfg);

    let time = |threads: usize| {
        let gpu = gpu_with_threads(threads);
        let start = Instant::now();
        let report = gpu.launch(&kernel);
        (start.elapsed().as_secs_f64(), report)
    };
    // One throwaway launch to warm allocator and page cache.
    let _ = time(1);
    let (t1, r1) = time(1);
    let (t4, r4) = time(4);
    let speedup = t1 / t4;
    let cycle_drift = (r4.cycles - r1.cycles).abs() / r1.cycles;
    println!(
        "engine_parallel_550 check: grid={} blocks, 1 thread {t1:.2}s, \
         4 threads {t4:.2}s, speedup {speedup:.2}x, cycle drift {:.4}%",
        r1.grid_blocks,
        cycle_drift * 100.0
    );
    assert!(
        cycle_drift <= 0.01,
        "parallel cycle estimate drifted {:.3}% (> 1% contract)",
        cycle_drift * 100.0
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4-thread exhaustive simulation must be ≥2x faster than \
             1-thread on a {cores}-core host, measured {speedup:.2}x"
        );
    } else {
        println!(
            "engine_parallel_550 check: host has {cores} core(s) — \
             ≥2x speedup assertion requires ≥4, skipping"
        );
    }
}

fn main() {
    let mut bench = Bench::from_args();
    bench_thread_scaling(&mut bench);
    speedup_check();
    bench.finish();
}
