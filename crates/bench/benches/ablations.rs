//! Ablation benchmarks over the design choices DESIGN.md calls out:
//! offset spread (what bounding buys at the memory system), texture-cache
//! size, block-sampling rate of the engine — plus the **operator-family
//! ablation** (the repo's Table V analogue): DCNv1 vs DCNv2's modulation
//! mask vs DCNv3's softmax-sparse aggregation on the deformed-shapes set,
//! reporting per-family texture-path fidelity (max/mean abs error of
//! tex2D and tex2D++ against the family's software reference) and
//! simulated latency per sampling path.
//!
//! The family ablation is fully deterministic and golden-pinned: at every
//! `DEFCON_THREADS` its JSON report must match
//! `crates/bench/tests/golden/ablation_table5.json` byte for byte
//! (re-bless with `DEFCON_BLESS=1`), and the semantic invariants (family
//! latency ordering, fidelity bounds, the v2-neutral≡v1 and
//! v3-neutral≡uniform reduction digests) hold.
//! `DEFCON_BENCH_OUT=<path>` additionally writes the report there — CI
//! uses it to `cmp` two runs. `DEFCON_TINY=1` skips the wall-clock
//! groups and runs only the golden-pinned ablation.

use defcon_core::serve::fnv1a64;
use defcon_gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon_kernels::op::{
    synthetic_inputs, synthetic_modulation, DeformConvOp, OpFamily, SamplingMethod,
};
use defcon_kernels::DeformLayerShape;
use defcon_models::dataset::{batch_images, DeformedShapesConfig};
use defcon_support::bench::Bench;
use defcon_support::env;
use defcon_support::json::Json;
use defcon_tensor::sample::OffsetTransform;
use defcon_tensor::Tensor;

/// How much the *spread* of learned offsets (which bounding caps) changes
/// simulated time — the paper finds bounding is roughly speed-neutral on
/// GPUs, unlike on FPGA accelerators.
fn bench_offset_spread(bench: &mut Bench) {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(64, 64, 35, 35);
    let mut group = bench.group("offset_spread_sim");
    group.sample_size(10);
    for spread in [1.0f32, 4.0, 12.0] {
        let (x, offsets) = synthetic_inputs(&shape, spread, 5);
        let op = DeformConvOp {
            method: SamplingMethod::Tex2d,
            offset_transform: OffsetTransform::Identity,
            ..DeformConvOp::baseline(shape)
        };
        group.bench_with_input(spread as u32, &op, |b, op| {
            b.iter(|| op.simulate_deform(&gpu, &x, &offsets));
        });
    }
    group.finish();
}

/// Simulation cost as a function of block-sampling budget (accuracy/cost
/// trade of the engine itself).
fn bench_sample_policy(bench: &mut Bench) {
    let shape = DeformLayerShape::same3x3(128, 128, 69, 69);
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 6);
    let mut group = bench.group("engine_sampling");
    group.sample_size(10);
    for budget in [24usize, 96, 384] {
        let gpu = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy {
                max_blocks: budget,
                ..SamplePolicy::default()
            },
        );
        let op = DeformConvOp {
            method: SamplingMethod::Tex2d,
            ..DeformConvOp::baseline(shape)
        };
        group.bench_with_input(budget, &budget, |b, _| {
            b.iter(|| op.simulate_deform(&gpu, &x, &offsets));
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Operator-family ablation (Table V analogue)
// ---------------------------------------------------------------------------

/// FNV-1a over the raw little-endian f32 bytes of a tensor — the byte-level
/// anchor the golden pins per family and path.
fn tensor_digest(t: &Tensor) -> u64 {
    let mut bytes = Vec::with_capacity(t.data().len() * 4);
    for v in t.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn hex(d: u64) -> Json {
    Json::str(format!("{d:016x}"))
}

/// `(max, mean)` absolute error of `got` against `want`, accumulated in
/// f64 in index order so the result is bitwise reproducible.
fn abs_err(got: &Tensor, want: &Tensor) -> (f64, f64) {
    assert_eq!(got.data().len(), want.data().len());
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for (g, w) in got.data().iter().zip(want.data()) {
        let e = (*g as f64 - *w as f64).abs();
        max = max.max(e);
        sum += e;
    }
    (max, sum / got.data().len() as f64)
}

/// One family row of the ablation: texture-path fidelity against the
/// family's software reference on the deformed-shapes batch, output
/// digests for the reduction identities, and simulated latency per path.
fn family_row(
    gpu: &Gpu,
    shape: DeformLayerShape,
    family: OpFamily,
    x: &Tensor,
    offsets: &Tensor,
    w: &Tensor,
) -> (Json, [f64; 3], u64, u64) {
    let modulation = synthetic_modulation(&shape, family, 0xAB1A);
    let op = |method: SamplingMethod, m: Option<Tensor>| DeformConvOp {
        family,
        method,
        modulation: m,
        ..DeformConvOp::baseline(shape)
    };
    let reference =
        op(SamplingMethod::SoftwareBilinear, modulation.clone()).reference(x, offsets, w);

    let sw = op(SamplingMethod::SoftwareBilinear, modulation.clone()).execute(x, offsets, w, gpu);
    let t2 = op(SamplingMethod::Tex2d, modulation.clone()).execute(x, offsets, w, gpu);
    let tpp = op(SamplingMethod::Tex2dPlusPlus, modulation.clone()).execute(x, offsets, w, gpu);
    let (t2_max, t2_mean) = abs_err(&t2, &sw);
    let (tpp_max, tpp_mean) = abs_err(&tpp, &sw);
    // Fidelity bounds: tex2D carries fp32 filter fractions, tex2D++ the
    // documented 8-bit quantization. Modulation never widens the error
    // (masks are ≤ 1, softmax weights sum to 1).
    assert!(t2_max < 1e-3, "{}: tex2D drifted {t2_max}", family.name());
    assert!(
        tpp_max < 0.1,
        "{}: tex2D++ drifted {tpp_max}",
        family.name()
    );

    // The neutral (modulation-free) output backs the reduction identities
    // pinned below; digest over the software path.
    let neutral = op(SamplingMethod::SoftwareBilinear, None).execute(x, offsets, w, gpu);

    let mut latency = [0.0f64; 3];
    let mut latency_fields: Vec<(&str, Json)> = Vec::new();
    for (i, method) in SamplingMethod::ladder().into_iter().enumerate() {
        let (ms, _) = op(method, modulation.clone()).simulate_total(gpu, x, offsets);
        latency[i] = ms;
        latency_fields.push((method.name(), Json::from(ms)));
    }

    let row = Json::obj(vec![
        ("reference_digest", hex(tensor_digest(&reference))),
        ("software_digest", hex(tensor_digest(&sw))),
        ("neutral_digest", hex(tensor_digest(&neutral))),
        ("tex2d_max_abs_err", Json::from(t2_max)),
        ("tex2d_mean_abs_err", Json::from(t2_mean)),
        ("tex2dpp_max_abs_err", Json::from(tpp_max)),
        ("tex2dpp_mean_abs_err", Json::from(tpp_mean)),
        ("latency_ms", Json::obj(latency_fields)),
    ]);
    (row, latency, tensor_digest(&sw), tensor_digest(&neutral))
}

/// Builds the deterministic Table V analogue report and asserts its
/// semantic invariants.
fn table5_family_ablation() -> Json {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    // Four deformed-shapes images (max deformation — the set the paper's
    // accuracy tables stress), batched into one grayscale input.
    let dataset = DeformedShapesConfig {
        size: 32,
        deformation: 1.0,
        ..Default::default()
    };
    let samples = dataset.generate(4, 0xAB1A);
    let x = batch_images(&samples);
    let shape = DeformLayerShape {
        n: 4,
        c_in: 1,
        c_out: 8,
        h: 32,
        w: 32,
        kernel: 3,
        stride: 1,
        pad: 1,
        deform_groups: 1,
    };
    let (_, offsets) = synthetic_inputs(&shape, 4.0, 0xAB1A);
    let w = Tensor::randn(&[8, 1, 3, 3], 0.0, 0.3, 0xAB1B);

    let mut rows: Vec<(String, Json)> = Vec::new();
    let mut latencies = Vec::new();
    let mut sw_digests = Vec::new();
    let mut neutral_digests = Vec::new();
    for family in OpFamily::all() {
        let (row, lat, sw_digest, neutral) = family_row(&gpu, shape, family, &x, &offsets, &w);
        rows.push((family.name().to_string(), row));
        latencies.push(lat);
        sw_digests.push(sw_digest);
        neutral_digests.push(neutral);
    }

    // Semantic invariants, independent of thread count:
    // 1. the modulated families never get cheaper climbing v1 → v2 → v3;
    //    the v1 → v2 step is strictly slower on every path (the mask loads
    //    plus the widened predictor always cost), while v2 → v3's extra
    //    softmax arithmetic may hide entirely under memory latency on this
    //    small layer — so it is bounded below, and the *work* ordering is
    //    pinned exactly on the deform-stage flop counters instead;
    for path in 0..3 {
        assert!(
            latencies[0][path] < latencies[1][path],
            "v2 not slower than v1 on path {path}"
        );
        assert!(
            latencies[1][path] <= latencies[2][path],
            "v3 cheaper than v2 on path {path}"
        );
    }
    let deform_flops = |family: OpFamily| -> u64 {
        let op = DeformConvOp {
            family,
            method: SamplingMethod::SoftwareBilinear,
            modulation: None,
            ..DeformConvOp::baseline(shape)
        };
        op.simulate_deform(&gpu, &x, &offsets)
            .iter()
            .map(|r| r.counters.flops)
            .sum()
    };
    let (f1, f2, f3) = (
        deform_flops(OpFamily::DcnV1),
        deform_flops(OpFamily::DcnV2),
        deform_flops(OpFamily::DcnV3),
    );
    assert!(f1 < f2, "v2 flops {f2} not above v1 {f1}");
    assert!(f2 < f3, "v3 flops {f3} not above v2 {f2}");
    // 2. the reduction identities, as byte digests: a neutral DCNv2 (no
    //    mask) is exactly DCNv1, and a neutral DCNv3 is the uniform
    //    average — which for constant logits equals the flat-mask DCNv2,
    //    checked in tests/operator_conformance.rs; here we pin that the
    //    neutral v2 digest equals v1's output digest.
    assert_eq!(
        neutral_digests[1], sw_digests[0],
        "neutral DCNv2 must reduce to DCNv1 byte-for-byte"
    );
    assert_eq!(
        neutral_digests[0], sw_digests[0],
        "DCNv1 ignores modulation by definition"
    );

    Json::obj(vec![
        ("bench", Json::str("ablation_table5")),
        (
            "dataset",
            Json::str("deformed-shapes 4x32x32 deformation=1.0 seed=0xAB1A"),
        ),
        ("layer", Json::str("n4 1->8 32x32 k3 s1 p1 g1")),
        ("device", Json::str(gpu.config().name.clone())),
        ("families", Json::Obj(rows)),
    ])
}

/// Runs the family ablation, writes/compares the golden, and honours
/// `DEFCON_BENCH_OUT` for CI's two-run reproducibility `cmp`.
fn run_table5_golden() {
    let doc = table5_family_ablation();
    let rendered = format!("{doc}\n");
    if let Some(path) = env::or_die(env::path(env::BENCH_OUT)) {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("ablations: wrote {}", path.display());
    }
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ablation_table5.json");
    if env::or_die(env::flag(env::BLESS)) {
        std::fs::create_dir_all(golden.parent().expect("golden has a parent")).expect("mkdir");
        std::fs::write(&golden, &rendered).expect("write golden");
        println!("ablations: blessed {}", golden.display());
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); record it with DEFCON_BLESS=1",
            golden.display()
        )
    });
    assert_eq!(
        rendered,
        want,
        "family ablation diverged from {}; if intentional, re-bless with DEFCON_BLESS=1",
        golden.display()
    );
    println!("ablations: table5 golden OK ({} bytes)", rendered.len());
}

fn main() {
    let tiny = defcon_bench::tiny_mode();
    run_table5_golden();
    if tiny {
        println!("ablations: DEFCON_TINY set — skipping wall-clock groups");
        return;
    }
    let mut bench = Bench::from_args();
    bench_offset_spread(&mut bench);
    bench_sample_policy(&mut bench);
    bench.finish();
}
