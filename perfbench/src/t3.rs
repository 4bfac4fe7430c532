//! `t3_r101` — Table III end to end: YOLACT++ ResNet-101 at 550 on the
//! Xavier model, 96-block sampling, fixed 16×16 tile.
//!
//! One op is one `zoo::simulate_network` call. A run visits three cells of
//! the Table III lattice in a fixed order — the interval-3 baseline, the
//! searched placement on the software path, and the repro's last row
//! (searched + P=7 + lightweight predictor + tex2D++) — and always runs
//! whole cycles, so every run weighs the cells alike. The inputs are the
//! ones `simulate_network` derives itself; the seed does not change them.
//!
//! Why: this is the paper's end-to-end result. About 85 % of its host time
//! is configuration-independent GEMM-trace launches, so GEMM-trace changes
//! and memoisation show here and barely anywhere else.
//!
//! The traced run rebuilds each network from the public calls that
//! `simulate_network` makes — `build_op`, `synthetic_inputs`, the offset
//! and deform stages, `simulate_regular_conv_ms`, and `Gpu::launch` of the
//! tail's `GemmKernel`/`RegularConvKernel` — and requires the f64 total to
//! match `simulate_network` bit for bit (slots summed first, then the
//! tail).

use crate::{
    end_to_end, error_pct, median, print_figures, ratio, reports_digest, timed_setup, Args,
    ClassStats, HostClock, Layers, RepeatCounter, RunResult, Timed, Tracer,
};
use defcon_core::pipeline::{DefconConfig, TileChoice};
use defcon_core::serve::fnv1a64;
use defcon_gpusim::trace::BlockTrace;
use defcon_gpusim::{DeviceConfig, Gpu, KernelReport, SamplePolicy};
use defcon_kernels::gemm_kernel::{GemmKernel, RegularConvKernel};
use defcon_kernels::im2col::address_map;
use defcon_kernels::op::{simulate_regular_conv_ms, synthetic_inputs, OffsetPredictorKind};
use defcon_kernels::{DeformLayerShape, SamplingMethod, TileConfig};
use defcon_models::zoo::{resnet_3x3_slots, simulate_network, DcnLayout, NetLayer};
use std::collections::HashMap;
use std::time::Instant;

/// Table III speedups the paper reports over the interval-3 baseline:
/// interval search alone, and every optimization on.
pub const PAPER_SEARCH_SPEEDUP: f64 = 1.25;
/// See [`PAPER_SEARCH_SPEEDUP`].
pub const PAPER_FULL_SPEEDUP: f64 = 2.80;

/// The head convolution of the fixed tail: 256 channels at 69².
pub fn head() -> DeformLayerShape {
    DeformLayerShape::same3x3(256, 256, 69, 69)
}

/// One Table III cell: a slot inventory and a DEFCON configuration.
pub struct Cell {
    /// Short name used in output.
    pub name: &'static str,
    /// The R101 3×3 slots with their deformable flags.
    pub slots: Vec<NetLayer>,
    /// The configuration deformable slots run under.
    pub config: DefconConfig,
}

/// The three cells, in visiting order.
pub fn cells() -> Vec<Cell> {
    let fixed = TileChoice::Fixed(TileConfig::default16());
    let searched = resnet_3x3_slots(101, DcnLayout::Searched);
    vec![
        Cell {
            name: "interval3_sw",
            slots: resnet_3x3_slots(101, DcnLayout::Interval(3)),
            config: DefconConfig {
                tile: fixed,
                ..DefconConfig::baseline()
            },
        },
        Cell {
            name: "searched_sw",
            slots: searched.clone(),
            config: DefconConfig {
                interval_search: true,
                tile: fixed,
                ..DefconConfig::baseline()
            },
        },
        Cell {
            name: "searched_full",
            slots: searched,
            config: DefconConfig {
                interval_search: true,
                bounded: Some(7.0),
                lightweight: true,
                method: SamplingMethod::Tex2dPlusPlus,
                tile: fixed,
                ..DefconConfig::baseline()
            },
        },
    ]
}

/// The Xavier model with the default 96-block sampling on one engine
/// thread (the shipped default; pinned so the environment cannot change it).
pub fn gpu() -> Gpu {
    Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy {
            threads: 1,
            ..SamplePolicy::default()
        },
    )
}

/// One step of a decomposed network, in `simulate_network`'s order.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// A deformable slot: `build_op`, inputs, offset stage, deform stage.
    Dcn(DeformLayerShape),
    /// A rigid 3×3 slot: `simulate_regular_conv_ms`.
    Rigid(DeformLayerShape),
    /// A bottleneck 1×1 of the fixed tail: `(m, k, n, batch)`.
    Tail(usize, usize, usize, usize),
    /// A head convolution of the fixed tail.
    Head(DeformLayerShape),
}

/// The steps of one network: every slot, then the tail (two 1×1 GEMMs
/// per slot, then three 256-channel head convolutions at 69²).
pub fn plan(slots: &[NetLayer]) -> Vec<Step> {
    let mut steps: Vec<Step> = slots
        .iter()
        .map(|l| {
            if l.dcn {
                Step::Dcn(l.shape)
            } else {
                Step::Rigid(l.shape)
            }
        })
        .collect();
    for l in slots {
        let s = l.shape;
        let (oh, ow) = s.out_hw();
        steps.push(Step::Tail(s.c_in, 4 * s.c_in, oh * ow, s.n));
        steps.push(Step::Tail(4 * s.c_out, s.c_out, oh * ow, s.n));
    }
    steps.extend([Step::Head(head()); 3]);
    steps
}

/// The synthetic-input seed and offset spread `simulate_network` uses for
/// a deformable slot.
fn slot_inputs(shape: &DeformLayerShape, config: &DefconConfig) -> (u64, f32) {
    (0xE2E ^ shape.c_in as u64, config.bounded.unwrap_or(8.0))
}

/// Kernel labels of a deformable slot's offset and deform stages, as the
/// kernels report them.
fn dcn_labels(config: &DefconConfig) -> (Vec<String>, Vec<String>) {
    let suffix = config.op_family.label_suffix();
    let offset = match config.offset_predictor() {
        OffsetPredictorKind::Standard => vec!["offset_conv".to_string()],
        OffsetPredictorKind::Lightweight => {
            vec!["depthwise_conv".into(), "offset_pointwise".into()]
        }
    };
    let deform = match config.method {
        SamplingMethod::SoftwareBilinear => {
            vec![format!("deform_im2col_sw{suffix}"), "conv_gemm".into()]
        }
        SamplingMethod::Tex2d => vec![format!("deform_fused_tex2d{suffix}")],
        SamplingMethod::Tex2dPlusPlus => vec![format!("deform_fused_tex2dpp{suffix}")],
    };
    (offset, deform)
}

/// The launches of one step as `(label, key)`. A key names the kernel,
/// the shape, the device, the sampling policy and — for launches of a
/// deformable op — the op's synthetic inputs; equal keys are identical
/// launches.
pub fn launches(step: &Step, config: &DefconConfig, gpu: &Gpu) -> Vec<(String, String)> {
    let ctx = format!("{}|{:?}", gpu.config().name, gpu.policy());
    let key = |label: &str, shape: String, input: &str| {
        (label.to_string(), format!("{label}|{shape}|{ctx}|{input}"))
    };
    match *step {
        Step::Dcn(shape) => {
            let (seed, spread) = slot_inputs(&shape, config);
            let input = format!(
                "seed={seed:#x},spread={spread},{:?},tile={}",
                config.offset_transform(),
                fixed_tile(config)
            );
            let (offset, deform) = dcn_labels(config);
            offset
                .iter()
                .chain(&deform)
                .map(|l| key(l, format!("{shape:?}"), &input))
                .collect()
        }
        Step::Rigid(shape) => vec![key("conv_gemm", format!("{shape:?}"), "-")],
        Step::Tail(m, k, n, batch) => vec![key(
            "bottleneck_1x1",
            format!("m={m},k={k},n={n},batch={batch}"),
            "-",
        )],
        Step::Head(shape) => vec![key("head_conv", format!("{shape:?}"), "-")],
    }
}

/// The fixed tile of a configuration (every cell here uses one).
pub fn fixed_tile(config: &DefconConfig) -> TileConfig {
    match config.tile {
        TileChoice::Fixed(t) => t,
        TileChoice::Autotuned { .. } => panic!("the Table III cells use a fixed tile"),
    }
}

fn tail_gemm(m: usize, k: usize, n: usize, batch: usize) -> GemmKernel {
    GemmKernel {
        m,
        k,
        n,
        batch,
        a_base: address_map::WEIGHTS,
        b_base: address_map::INPUT,
        c_base: address_map::OUTPUT,
        name: "bottleneck_1x1".into(),
    }
}

/// The launch keys of one cycle over `cells`, step by step in visiting
/// order: the plan behind `repeat_share`.
pub fn cycle_keys(gpu: &Gpu, cells: &[Cell]) -> Vec<Vec<String>> {
    cells
        .iter()
        .flat_map(|c| {
            plan(&c.slots).into_iter().map(move |step| {
                launches(&step, &c.config, gpu)
                    .into_iter()
                    .map(|(_, k)| k)
                    .collect()
            })
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> RunResult {
    let clock = HostClock::start();
    // Set-up builds the device model and the cells (about a microsecond)
    // and warms the engine with one launch of the head convolution every
    // network ends with (about 0.35 s); the median of three is the figure.
    // A microsecond alone is too short to time steadily on a shared host.
    let ((gpu, cells), builds) = timed_setup(&clock, 3, || {
        let (gpu, cells) = (gpu(), cells());
        std::hint::black_box(gpu.launch(&RegularConvKernel::new(head(), "head_conv")));
        (gpu, cells)
    });
    if args.trace {
        drop(clock);
        traced(&gpu, &cells)
    } else {
        measured(args, clock, &gpu, &cells, &builds)
    }
}

/// Checks the paper's ordering (every optimization helps) and prints the
/// simulated speedups beside Table III's.
fn compare(cells: &[Cell], totals: &[f64], digest: u64) -> bool {
    let search = totals[0] / totals[1];
    let full = totals[0] / totals[2];
    println!(
        "t3_r101 digest {digest:016x}: full DEFCON {:.4} sim ms; speedup over the interval-3 baseline: \
         search {search:.3}x (paper {PAPER_SEARCH_SPEEDUP}x, error {:+.1}%), full {full:.3}x (paper \
         {PAPER_FULL_SPEEDUP}x, error {:+.1}%)",
        totals[2],
        error_pct(search, PAPER_SEARCH_SPEEDUP),
        error_pct(full, PAPER_FULL_SPEEDUP)
    );
    let ordered = totals[2] < totals[1] && totals[1] < totals[0];
    if !ordered {
        println!(
            "t3_r101 FAILED: cells not ordered {} > {} > {}: {totals:?}",
            cells[0].name, cells[1].name, cells[2].name
        );
    }
    ordered
}

fn totals_digest(totals: &[f64]) -> u64 {
    let bytes: Vec<u8> = totals
        .iter()
        .flat_map(|t| t.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn measured(
    args: &Args,
    clock: HostClock,
    gpu: &Gpu,
    cells: &[Cell],
    builds: &[Timed],
) -> RunResult {
    let mut op_s = Vec::new();
    let mut ops = Vec::new();
    let mut first: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let window = Instant::now();
    // Whole cycles only: each run times every cell equally often.
    while op_s.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        for (i, cell) in cells.iter().enumerate() {
            let (ms, span) = clock.time(|| simulate_network(gpu, &cell.slots, &cell.config));
            op_s.push(span.secs);
            ops.push(span);
            match first.get(i) {
                None => first.push(ms),
                Some(&f) if f.to_bits() != ms.to_bits() => {
                    println!("t3_r101 FAILED: {} repeat gave {ms} after {f}", cell.name);
                    failed += 1;
                }
                Some(_) => {}
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let speed = clock.finish();
    let mut planned = RepeatCounter::default();
    for step in cycle_keys(gpu, cells) {
        planned.step(&step, 0.0);
    }
    println!(
        "t3_r101 plan: {} of {} launches in a cycle repeat an earlier launch (the ceiling on memoisation)",
        planned.repeats, planned.total
    );
    let ordered = compare(cells, &first, totals_digest(&first));
    println!(
        "t3_r101: {} network simulations in {window_s:.2} s, median {:.3} s",
        op_s.len(),
        median(&op_s)
    );
    let figures = |label: &str, op_s: &[f64], setup: &dyn Fn(Timed) -> f64| {
        let metrics = end_to_end(
            op_s,
            median(&builds.iter().map(|&b| setup(b)).collect::<Vec<_>>()),
        );
        let net_s = op_s.iter().sum::<f64>() / op_s.len() as f64;
        print_figures(
            "t3_r101",
            label,
            &[("t3_net_s", net_s, "s"), ("t3_sim_ms", first[2], "ms")],
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

/// Host time and reports of one decomposed network.
struct Decomposed {
    total_ms: f64,
    dcn_ms: f64,
    reports: Vec<KernelReport>,
    rigid_bits: Vec<u64>,
    label_mismatches: usize,
}

/// Runs one network step by step under spans, accumulating repeat keys
/// and per-class time.
fn decompose(
    gpu: &Gpu,
    cell: &Cell,
    tracer: &mut Tracer,
    repeats: &mut RepeatCounter,
    classes: &mut ClassStats,
    gemm_calibration: &mut HashMap<String, f64>,
) -> Decomposed {
    let cfg = &cell.config;
    let net = tracer.open("zoo.simulate_network", None);
    let (mut slots_ms, mut tail_ms, mut dcn_ms) = (0.0f64, 0.0f64, 0.0f64);
    let mut reports = Vec::new();
    let mut rigid_bits = Vec::new();
    let mut label_mismatches = 0;
    let mut sw_shapes = Vec::new();
    for step in plan(&cell.slots) {
        let keys = launches(&step, cfg, gpu);
        let (step_reports, host_s) = match step {
            Step::Dcn(shape) => {
                let slot = tracer.open("zoo.dcn", Some(net));
                let (op, _) = tracer.time("core.build_op", Some(slot), || cfg.build_op(shape, gpu));
                let (seed, spread) = slot_inputs(&shape, cfg);
                let ((x, offsets), _) = tracer.time("kernels.inputs", Some(slot), || {
                    synthetic_inputs(&shape, spread, seed)
                });
                let (mut r, offset_s) = tracer.time("kernels.offset_conv", Some(slot), || {
                    op.simulate_offset_conv(gpu)
                });
                let deform_span = match op.method {
                    SamplingMethod::SoftwareBilinear => "kernels.deform.sw",
                    SamplingMethod::Tex2d => "kernels.deform.tex2d",
                    SamplingMethod::Tex2dPlusPlus => "kernels.deform.tex2dpp",
                };
                let (deform, deform_s) = tracer.time(deform_span, Some(slot), || {
                    op.simulate_deform(gpu, &x, &offsets)
                });
                let slot_s = tracer.close(slot);
                classes.add_time(
                    "gemm",
                    r.iter().map(|k| k.simulated_blocks as u64).sum(),
                    offset_s,
                );
                match op.method {
                    SamplingMethod::SoftwareBilinear => {
                        sw_shapes.push((shape, deform_s, deform.clone()))
                    }
                    _ => classes.add_time("fused", deform[0].simulated_blocks as u64, deform_s),
                }
                r.extend(deform);
                // `simulate_total`'s sum: offset reports, then deform reports.
                let ms: f64 = r.iter().map(|k| k.time_ms).sum();
                slots_ms += ms;
                dcn_ms += ms;
                (r, slot_s)
            }
            Step::Rigid(shape) => {
                let (ms, s) = tracer.time("zoo.rigid", Some(net), || {
                    simulate_regular_conv_ms(gpu, &shape)
                });
                let blocks = gpu
                    .policy()
                    .select(GemmKernel::for_conv(&shape).grid_blocks())
                    .len();
                classes.add_time("gemm", blocks as u64, s);
                rigid_bits.push(ms.to_bits());
                slots_ms += ms;
                (Vec::new(), s)
            }
            Step::Tail(m, k, n, batch) => {
                let (r, s) = tracer.time("zoo.tail", Some(net), || {
                    gpu.launch(&tail_gemm(m, k, n, batch))
                });
                tail_ms += r.time_ms;
                classes.add_time("gemm", r.simulated_blocks as u64, s);
                (vec![r], s)
            }
            Step::Head(shape) => {
                let (r, s) = tracer.time("zoo.tail", Some(net), || {
                    gpu.launch(&RegularConvKernel::new(shape, "head_conv"))
                });
                tail_ms += r.time_ms;
                classes.add_time("gemm", r.simulated_blocks as u64, s);
                (vec![r], s)
            }
        };
        if !step_reports.is_empty() {
            let labels: Vec<&str> = step_reports.iter().map(|r| r.kernel.as_str()).collect();
            let planned: Vec<&str> = keys.iter().map(|(l, _)| l.as_str()).collect();
            if labels != planned {
                println!(
                    "t3_r101 FAILED: {} launched {labels:?}, plan says {planned:?}",
                    cell.name
                );
                label_mismatches += 1;
            }
        }
        let keys: Vec<String> = keys.into_iter().map(|(_, k)| k).collect();
        repeats.step(&keys, host_s);
        for r in &step_reports {
            classes.add_counters(r);
        }
        reports.extend(step_reports);
    }
    tracer.close(net);
    // Split each software deform stage into its gather and its GEMM by
    // timing the same GEMM launch once more, outside the traced network.
    for (shape, deform_s, deform) in sw_shapes {
        let key = format!("{shape:?}");
        let gemm_s = *gemm_calibration.entry(key).or_insert_with(|| {
            let t0 = Instant::now();
            std::hint::black_box(simulate_regular_conv_ms(gpu, &shape));
            t0.elapsed().as_secs_f64()
        });
        classes.add_software_stage(&deform, deform_s, gemm_s);
    }
    Decomposed {
        total_ms: slots_ms + tail_ms,
        dcn_ms,
        reports,
        rigid_bits,
        label_mismatches,
    }
}

fn traced(gpu: &Gpu, cells: &[Cell]) -> RunResult {
    let mut tracer = Tracer::default();
    let mut repeats = RepeatCounter::default();
    let mut classes = ClassStats::default();
    let mut calibration = HashMap::new();
    let mut failed = 0u64;
    let mut totals = Vec::new();
    let mut shares = Vec::new();
    let mut digest_text = Vec::new();
    for cell in cells {
        let reference = simulate_network(gpu, &cell.slots, &cell.config);
        let d = decompose(
            gpu,
            cell,
            &mut tracer,
            &mut repeats,
            &mut classes,
            &mut calibration,
        );
        let gate = d.total_ms.to_bits() == reference.to_bits();
        println!(
            "t3_r101 attribution gate {}: {} decomposed {} vs simulate_network {reference}",
            if gate { "passed" } else { "FAILED" },
            cell.name,
            d.total_ms
        );
        if !gate || d.label_mismatches > 0 {
            failed += 1;
        }
        totals.push(reference);
        shares.push(ratio(d.dcn_ms, d.total_ms));
        digest_text.push(format!("{:016x}", reports_digest(&d.reports)));
        digest_text.extend(d.rigid_bits.iter().map(|b| format!("{b:016x}")));
    }
    let ordered = compare(cells, &totals, fnv1a64(digest_text.join("\n").as_bytes()));
    let per_net = |name: &str| tracer.seconds(name) / cells.len() as f64;
    let mut layers = Layers::default();
    layers.set("sim.ms", totals[2]);
    layers.set("sim.speedup", totals[0] / totals[2]);
    layers.set("zoo.tail_s", per_net("zoo.tail"));
    layers.set("zoo.rigid_s", per_net("zoo.rigid"));
    layers.set("zoo.dcn_s", per_net("zoo.dcn"));
    layers.set("zoo.dcn_sim_share", shares[2]);
    layers.set("zoo.dcn_sim_share_baseline", shares[0]);
    layers.set("core.build_op_s", per_net("core.build_op"));
    layers.set("kernels.inputs_s", per_net("kernels.inputs"));
    layers.set("kernels.offset_conv_s", per_net("kernels.offset_conv"));
    layers.set("kernels.deform_s.sw", per_net("kernels.deform.sw"));
    layers.set("kernels.deform_s.tex2d", per_net("kernels.deform.tex2d"));
    layers.set(
        "kernels.deform_s.tex2dpp",
        per_net("kernels.deform.tex2dpp"),
    );
    classes.fill(&mut layers);
    let overhead_pct = tracer.overhead_pct("zoo.simulate_network");
    layers.set("repeat_share", repeats.share());
    layers.set("repeat_host_share", repeats.host_share());
    layers.set("trace.overhead_pct", overhead_pct);
    layers.set("gpusim.launches", repeats.total as f64);
    println!(
        "t3_r101 traced: {} of {} launches repeat an earlier key; DCN slots are {:.1}% (baseline) / {:.1}% \
         (full) of simulated ms; tracing overhead {overhead_pct:.3}%",
        repeats.repeats,
        repeats.total,
        100.0 * shares[0],
        100.0 * shares[2],
    );
    match tracer.write("trace_t3_r101.json") {
        Ok(p) => println!("t3_r101 spans written to {}", p.display()),
        Err(e) => println!("t3_r101: could not write spans: {e}"),
    }
    RunResult {
        correct: failed == 0 && ordered,
        attempted: 2 * cells.len() as u64,
        failed,
        metrics: layers.into_metrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn searched_software_network_repeats_91_of_118_launch_keys() {
        let mut rc = RepeatCounter::default();
        for step in cycle_keys(&gpu(), &cells()[1..2]) {
            rc.step(&step, 0.0);
        }
        assert_eq!((rc.repeats, rc.total), (91, 118));
    }

    #[test]
    fn plan_has_every_slot_then_the_69_launch_tail() {
        for cell in cells() {
            let steps = plan(&cell.slots);
            assert_eq!(steps.len(), 33 + 66 + 3);
            assert!(steps[..33]
                .iter()
                .all(|s| matches!(s, Step::Dcn(_) | Step::Rigid(_))));
            assert!(steps[33..]
                .iter()
                .all(|s| matches!(s, Step::Tail(..) | Step::Head(_))));
        }
    }
}
