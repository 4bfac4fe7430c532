//! `t2_exhaustive` — Table II per layer: the six `paper_layer_sweep`
//! layers × {software im2col+GEMM, tex2D, tex2D++}, each through
//! `DeformConvOp::simulate_total` with every thread block simulated
//! (`SamplePolicy::exhaustive()`) on the Xavier model.
//!
//! One op is one full sweep; a run times at least two. The synthetic
//! inputs (±4 px offsets, seeded from `--seed`) are made at set-up, one
//! pair per layer shared by the three samplers, as `repro_table2_xavier`
//! does.
//!
//! Why: this is the paper's per-layer result. About two thirds of its host
//! time is the deformable sampler (`kernels::im2col` gathers and the
//! `kernels::fused` texture plan/replay) and a third GEMM-family traces,
//! and it drives the engine exhaustively rather than sampled — so sampler
//! changes show here.

use crate::{
    end_to_end, error_pct, median, print_figures, reports_digest, timed_setup, Args, ClassStats,
    HostClock, Layers, RepeatCounter, RunResult, Timed, Tracer,
};
use defcon_gpusim::{DeviceConfig, Gpu, KernelReport, SamplePolicy};
use defcon_kernels::op::{simulate_regular_conv_ms, synthetic_inputs};
use defcon_kernels::{paper_layer_sweep, DeformConvOp, DeformLayerShape, SamplingMethod};
use defcon_tensor::Tensor;
use std::time::Instant;

/// Table II's speedup band of tex2D++ over PyTorch across the six layers.
pub const PAPER_SPEEDUP_BAND: (f64, f64) = (1.33, 1.41);

/// The samplers of one sweep row, in Table II's column order.
pub const METHODS: [SamplingMethod; 3] = [
    SamplingMethod::SoftwareBilinear,
    SamplingMethod::Tex2d,
    SamplingMethod::Tex2dPlusPlus,
];

/// The Xavier model simulating every block on one engine thread.
pub fn gpu() -> Gpu {
    Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy {
            threads: 1,
            ..SamplePolicy::exhaustive()
        },
    )
}

/// The synthetic-input seed of layer `i` under run seed `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    defcon_core::serve::fnv1a64(format!("t2_exhaustive/{seed}/{i}").as_bytes())
}

/// One sweep row: a layer and its seeded synthetic inputs (±4 px offsets),
/// shared by the three samplers as `repro_table2_xavier` does.
pub struct Row {
    shape: DeformLayerShape,
    seed: u64,
    x: Tensor,
    offsets: Tensor,
}

/// The six rows of a sweep under run seed `seed`.
pub fn rows(seed: u64) -> Vec<Row> {
    paper_layer_sweep()
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let seed = input_seed(seed, i);
            let (x, offsets) = synthetic_inputs(&shape, 4.0, seed);
            Row {
                shape,
                seed,
                x,
                offsets,
            }
        })
        .collect()
}

/// One sweep's results: simulated ms per layer and sampler, and every
/// launch report in order.
struct Sweep {
    ms: Vec<[f64; 3]>,
    reports: Vec<KernelReport>,
}

fn sweep(gpu: &Gpu, rows: &[Row]) -> Sweep {
    let mut out = Sweep {
        ms: Vec::new(),
        reports: Vec::new(),
    };
    for row in rows {
        let mut ms = [0.0; 3];
        for (j, method) in METHODS.into_iter().enumerate() {
            let op = DeformConvOp {
                method,
                ..DeformConvOp::baseline(row.shape)
            };
            let (total, reports) = op.simulate_total(gpu, &row.x, &row.offsets);
            ms[j] = total;
            out.reports.extend(reports);
        }
        out.ms.push(ms);
    }
    out
}

/// Checks Table II's ordering (tex2D++ ≤ tex2D < PyTorch on every row)
/// and prints the simulated speedups beside the paper's band.
fn compare(s: &Sweep, digest: u64) -> bool {
    let speedups: Vec<f64> = s.ms.iter().map(|r| r[0] / r[2]).collect();
    let (lo, hi) = speedups
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (plo, phi) = PAPER_SPEEDUP_BAND;
    println!(
        "t2_exhaustive digest {digest:016x}: tex2D++ total {:.4} sim ms; speedup over PyTorch {lo:.3}x..{hi:.3}x \
         (paper {plo}x..{phi}x, error {:+.1}%..{:+.1}%)",
        s.ms.iter().map(|r| r[2]).sum::<f64>(),
        error_pct(lo, plo),
        error_pct(hi, phi)
    );
    let ordered = s.ms.iter().all(|r| r[2] <= r[1] && r[1] < r[0]);
    if !ordered {
        println!(
            "t2_exhaustive FAILED: a row breaks tex2D++ <= tex2D < PyTorch: {:?}",
            s.ms
        );
    }
    ordered
}

/// Runs the workload.
pub fn run(args: &Args) -> RunResult {
    let clock = HostClock::start();
    let ((gpu, rows), builds) = timed_setup(&clock, 3, || (gpu(), rows(args.seed)));
    if args.trace {
        drop(clock);
        traced(&gpu, &rows)
    } else {
        measured(args, clock, &gpu, &rows, &builds)
    }
}

fn measured(args: &Args, clock: HostClock, gpu: &Gpu, rows: &[Row], builds: &[Timed]) -> RunResult {
    let mut op_s = Vec::new();
    let mut ops = Vec::new();
    let mut first: Option<(u64, Sweep)> = None;
    let mut failed = 0u64;
    let window = Instant::now();
    // At least two sweeps, so every run reports the same statistics.
    while op_s.len() < 2 || window.elapsed().as_secs_f64() < args.seconds {
        let (s, span) = clock.time(|| sweep(gpu, rows));
        op_s.push(span.secs);
        ops.push(span);
        let digest = reports_digest(&s.reports);
        match &first {
            None => first = Some((digest, s)),
            Some((d, _)) if *d != digest => {
                println!("t2_exhaustive FAILED: sweep digest {digest:016x} after {d:016x}");
                failed += 1;
            }
            Some(_) => {}
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let speed = clock.finish();
    let (digest, s) = first.expect("at least one sweep");
    let ordered = compare(&s, digest);
    println!(
        "t2_exhaustive: {} sweeps in {window_s:.2} s, median {:.3} s",
        op_s.len(),
        median(&op_s)
    );
    let sim_ms = s.ms.iter().map(|r| r[2]).sum();
    let figures = |label: &str, op_s: &[f64], setup: &dyn Fn(Timed) -> f64| {
        let metrics = end_to_end(
            op_s,
            median(&builds.iter().map(|&b| setup(b)).collect::<Vec<_>>()),
        );
        let sweep_s = op_s.iter().sum::<f64>() / op_s.len() as f64;
        print_figures(
            "t2_exhaustive",
            label,
            &[("t2_sweep_s", sweep_s, "s"), ("t2_sim_ms", sim_ms, "ms")],
            &metrics,
        );
        metrics
    };
    figures("wall", &op_s, &|t| t.secs);
    let metrics = figures(&speed.label(), &speed.adjust_all(&ops), &|t| {
        speed.adjust(t)
    });
    RunResult {
        correct: failed == 0 && ordered,
        attempted: op_s.len() as u64,
        failed,
        metrics,
    }
}

fn traced(gpu: &Gpu, rows: &[Row]) -> RunResult {
    let reference = sweep(gpu, rows);
    let mut tracer = Tracer::default();
    let mut repeats = RepeatCounter::default();
    let mut classes = ClassStats::default();
    let mut ms = Vec::new();
    let mut reports = Vec::new();
    let mut sw_stages = Vec::new();
    let root = tracer.open("t2.sweep", None);
    for row in rows {
        let (shape, seed) = (row.shape, row.seed);
        let mut ms_row = [0.0; 3];
        for (j, method) in METHODS.into_iter().enumerate() {
            let op = DeformConvOp {
                method,
                ..DeformConvOp::baseline(shape)
            };
            let (mut r, offset_s) = tracer.time("kernels.offset_conv", Some(root), || {
                op.simulate_offset_conv(gpu)
            });
            let name = [
                "kernels.deform.sw",
                "kernels.deform.tex2d",
                "kernels.deform.tex2dpp",
            ][j];
            let (deform, deform_s) = tracer.time(name, Some(root), || {
                op.simulate_deform(gpu, &row.x, &row.offsets)
            });
            // Keys: the offset convolution does not depend on the sampler,
            // so its launch repeats across the three columns of a row.
            let ctx = format!("{:?}|{:?}|seed={seed:#x}", shape, gpu.policy());
            repeats.step(&[format!("{}|{ctx}", r[0].kernel)], offset_s);
            let deform_keys: Vec<String> = deform
                .iter()
                .map(|k| format!("{}|{ctx}", k.kernel))
                .collect();
            repeats.step(&deform_keys, deform_s);
            classes.add_time(
                "gemm",
                r.iter().map(|k| k.simulated_blocks as u64).sum(),
                offset_s,
            );
            match method {
                SamplingMethod::SoftwareBilinear => {
                    sw_stages.push((shape, deform_s, deform.clone()))
                }
                _ => classes.add_time("fused", deform[0].simulated_blocks as u64, deform_s),
            }
            r.extend(deform);
            for k in &r {
                classes.add_counters(k);
            }
            ms_row[j] = r.iter().map(|k| k.time_ms).sum();
            reports.extend(r);
        }
        ms.push(ms_row);
    }
    tracer.close(root);
    // Split the software stage into gather and GEMM by timing the same
    // GEMM launch again, outside the traced sweep.
    for (shape, deform_s, deform) in sw_stages {
        let t = Instant::now();
        std::hint::black_box(simulate_regular_conv_ms(gpu, &shape));
        classes.add_software_stage(&deform, deform_s, t.elapsed().as_secs_f64());
    }

    let digest = reports_digest(&reports);
    let reference_digest = reports_digest(&reference.reports);
    let mut failed = 0u64;
    let same_bits = ms
        .iter()
        .flatten()
        .zip(reference.ms.iter().flatten())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    if digest != reference_digest || !same_bits {
        println!("t2_exhaustive FAILED: traced sweep {digest:016x} differs from simulate_total {reference_digest:016x}");
        failed += 1;
    }
    let sweep = Sweep { ms, reports };
    let ordered = compare(&sweep, digest);

    let mut layers = Layers::default();
    layers.set("sim.ms", sweep.ms.iter().map(|r| r[2]).sum());
    layers.set(
        "sim.speedup",
        sweep.ms.iter().map(|r| r[0]).sum::<f64>() / sweep.ms.iter().map(|r| r[2]).sum::<f64>(),
    );
    layers.set(
        "kernels.offset_conv_s",
        tracer.seconds("kernels.offset_conv"),
    );
    layers.set("kernels.deform_s.sw", tracer.seconds("kernels.deform.sw"));
    layers.set(
        "kernels.deform_s.tex2d",
        tracer.seconds("kernels.deform.tex2d"),
    );
    layers.set(
        "kernels.deform_s.tex2dpp",
        tracer.seconds("kernels.deform.tex2dpp"),
    );
    classes.fill(&mut layers);
    let overhead_pct = tracer.overhead_pct("t2.sweep");
    layers.set("repeat_share", repeats.share());
    layers.set("repeat_host_share", repeats.host_share());
    layers.set("trace.overhead_pct", overhead_pct);
    layers.set("gpusim.launches", repeats.total as f64);
    println!(
        "t2_exhaustive traced: {} of {} launches repeat an earlier key ({:.1}% of host time); tracing overhead \
         {overhead_pct:.3}%",
        repeats.repeats,
        repeats.total,
        100.0 * repeats.host_share(),
    );
    match tracer.write("trace_t2_exhaustive.json") {
        Ok(p) => println!("t2_exhaustive spans written to {}", p.display()),
        Err(e) => println!("t2_exhaustive: could not write spans: {e}"),
    }
    RunResult {
        correct: failed == 0 && ordered,
        attempted: 2,
        failed,
        metrics: layers.into_metrics(),
    }
}
