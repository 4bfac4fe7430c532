//! Cross-backend differential conformance: every operator family
//! {DCNv1, DCNv2, DCNv3} × kernel path {software, tex2D, tex2D++} cell
//! must produce **byte-identical** functional deform outputs on the
//! gpusim backend and the tiled-dataflow accel backend.
//!
//! The argument (DESIGN.md §13) is structural, and these tests pin it:
//! both backends drive the same `Im2colDeformKernel` per-element sampling
//! pipeline, and the shared GEMM accumulates each output element over the
//! identical ascending-k sequence at any blocking width — so the accel's
//! per-tile execution must reproduce gpusim's whole-image bytes exactly,
//! not merely to a tolerance. The family reduction identities
//! (v2 all-ones ≡ v1, v3 constant logits ≡ uniform 1/k² mask) are pinned
//! bytewise on the accel substrate too, mirroring
//! `tests/operator_conformance.rs` on gpusim.
//!
//! CI runs this suite under both `DEFCON_THREADS=1` and `=4`, so every
//! byte assertion also covers the worker-band dimension.

use defcon::core::autotune::{Autotuner, Strategy};
use defcon::prelude::*;

fn small_shape() -> DeformLayerShape {
    DeformLayerShape::same3x3(4, 6, 10, 10)
}

fn grouped_shape() -> DeformLayerShape {
    DeformLayerShape {
        deform_groups: 2,
        ..DeformLayerShape::same3x3(4, 4, 8, 8)
    }
}

fn weight_for(shape: &DeformLayerShape, seed: u64) -> Tensor {
    Tensor::randn(
        &[shape.c_out, shape.c_in, shape.kernel, shape.kernel],
        0.0,
        0.3,
        seed,
    )
}

fn op_with(
    shape: DeformLayerShape,
    family: OpFamily,
    method: SamplingMethod,
    modulation: Option<Tensor>,
) -> DeformConvOp {
    DeformConvOp {
        family,
        method,
        modulation,
        ..DeformConvOp::baseline(shape)
    }
}

/// Both substrates behind the trait, so every assertion goes through the
/// same `Backend` surface the serving layer uses.
fn backends() -> (Gpu, Accel) {
    (
        Gpu::new(DeviceConfig::xavier_agx()),
        Accel::new(AccelConfig::edge()),
    )
}

#[test]
fn every_family_and_path_cell_is_byte_identical_across_backends() {
    let (gpu, accel) = backends();
    for shape in [small_shape(), grouped_shape()] {
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 42);
        let w = weight_for(&shape, 43);
        for family in OpFamily::all() {
            let modulation = synthetic_modulation(&shape, family, 7);
            for method in SamplingMethod::ladder() {
                let op = op_with(shape, family, method, modulation.clone());
                let on_gpu = Backend::execute(&gpu, &op, &x, &offsets, &w);
                let on_accel = Backend::execute(&accel, &op, &x, &offsets, &w);
                assert_eq!(on_gpu.shape(), on_accel.shape());
                assert_eq!(
                    on_gpu.data(),
                    on_accel.data(),
                    "backends diverged on {family:?} {} {shape:?}",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn accel_tiling_is_invariant_to_the_tile_choice_bytewise() {
    // The blocking-width argument directly: different tile shapes change
    // the accel's execution order across tiles but may not change bytes.
    let (gpu, accel) = backends();
    let shape = small_shape();
    let (x, offsets) = synthetic_inputs(&shape, 2.0, 44);
    let w = weight_for(&shape, 45);
    let base = op_with(
        shape,
        OpFamily::DcnV2,
        SamplingMethod::Tex2dPlusPlus,
        synthetic_modulation(&shape, OpFamily::DcnV2, 9),
    );
    let reference = Backend::execute(&gpu, &base, &x, &offsets, &w);
    for tile in accel.tile_space(&base) {
        let op = DeformConvOp {
            tile,
            ..base.clone()
        };
        let got = Backend::execute(&accel, &op, &x, &offsets, &w);
        assert_eq!(
            reference.data(),
            got.data(),
            "tile {}x{} changed accel bytes",
            tile.h,
            tile.w
        );
    }
}

#[test]
fn v2_reductions_hold_bytewise_on_the_accel_backend() {
    let (_, accel) = backends();
    for shape in [small_shape(), grouped_shape()] {
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 46);
        let w = weight_for(&shape, 47);
        let (oh, ow) = shape.out_hw();
        let mc = shape.deform_groups * shape.kernel * shape.kernel;
        let ones = Tensor::full(&[shape.n, mc, oh, ow], 1.0);
        for method in SamplingMethod::ladder() {
            let v1 = Backend::execute(
                &accel,
                &op_with(shape, OpFamily::DcnV1, method, None),
                &x,
                &offsets,
                &w,
            );
            let v2_ones = Backend::execute(
                &accel,
                &op_with(shape, OpFamily::DcnV2, method, Some(ones.clone())),
                &x,
                &offsets,
                &w,
            );
            let v2_none = Backend::execute(
                &accel,
                &op_with(shape, OpFamily::DcnV2, method, None),
                &x,
                &offsets,
                &w,
            );
            assert_eq!(
                v1.data(),
                v2_ones.data(),
                "accel: all-ones mask changed bytes on {}",
                method.name()
            );
            assert_eq!(
                v1.data(),
                v2_none.data(),
                "accel: neutral (absent) mask changed bytes on {}",
                method.name()
            );
        }
    }
}

#[test]
fn v3_constant_logits_are_the_uniform_average_bytewise_on_accel() {
    let (_, accel) = backends();
    for shape in [small_shape(), grouped_shape()] {
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 48);
        let w = weight_for(&shape, 49);
        let (oh, ow) = shape.out_hw();
        let kk = shape.kernel * shape.kernel;
        let mc = shape.deform_groups * kk;
        // softmax over equal logits is exactly 1/k² per tap; the v2 flat
        // mask of the same f32 makes the comparison bitwise, not tolerant.
        let constant = Tensor::full(&[shape.n, mc, oh, ow], 0.875);
        let flat = Tensor::full(&[shape.n, mc, oh, ow], (1.0f64 / kk as f64) as f32);
        for method in SamplingMethod::ladder() {
            let v3_const = Backend::execute(
                &accel,
                &op_with(shape, OpFamily::DcnV3, method, Some(constant.clone())),
                &x,
                &offsets,
                &w,
            );
            let v3_none = Backend::execute(
                &accel,
                &op_with(shape, OpFamily::DcnV3, method, None),
                &x,
                &offsets,
                &w,
            );
            let v2_flat = Backend::execute(
                &accel,
                &op_with(shape, OpFamily::DcnV2, method, Some(flat.clone())),
                &x,
                &offsets,
                &w,
            );
            assert_eq!(
                v3_const.data(),
                v3_none.data(),
                "accel: neutral logits diverged from constant logits on {}",
                method.name()
            );
            assert_eq!(
                v3_const.data(),
                v2_flat.data(),
                "accel: constant-logit softmax is not the uniform average on {}",
                method.name()
            );
        }
    }
}

#[test]
fn accel_reports_are_reproducible_and_never_depend_on_data() {
    use defcon_support::json::ToJson;
    let (_, accel) = backends();
    let shape = small_shape();
    let offsets = synthetic_offsets(&shape, 2.0, 50);
    let json = |op: &DeformConvOp, offs: &Tensor| -> String {
        Backend::launch_total(&accel, op, offs)
            .expect("accel launch")
            .1
            .iter()
            .map(|r| r.to_json().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    for family in OpFamily::all() {
        for method in SamplingMethod::ladder() {
            let op = op_with(
                shape,
                family,
                method,
                synthetic_modulation(&shape, family, 3),
            );
            let first = json(&op, &offsets);
            assert_eq!(first, json(&op, &offsets), "accel reports not stable");
            // Different offsets and modulation, same shape: the trace may
            // not change.
            let offs2 = synthetic_offsets(&shape, 3.0, 99);
            let hot = op_with(
                shape,
                family,
                method,
                synthetic_modulation(&shape, family, 8),
            );
            assert_eq!(
                first,
                json(&hot, &offs2),
                "accel trace depends on data for {family:?} {}",
                method.name()
            );
        }
    }
}

#[test]
fn autotune_search_transfers_wholesale_to_the_accel_tile_space() {
    let (_, accel) = backends();
    let shape = DeformLayerShape::same3x3(16, 16, 40, 40);
    let op = DeformConvOp::baseline(shape);
    let space = accel.tile_space(&op);
    assert!(!space.is_empty(), "accel admits no tiles for {shape:?}");
    let objective = accel.tile_objective(&op);
    let tuner = Autotuner {
        strategy: Strategy::Exhaustive,
        budget: 0,
        seed: 0,
    };
    let result = tuner.run(&space, &objective);
    assert!(result.best_value.is_finite());
    assert_eq!(result.evaluations.len(), space.len());
    // The exhaustive winner is the true arg-min of the cycle model.
    let brute = space
        .iter()
        .map(|&t| objective(t))
        .fold(f64::INFINITY, f64::min);
    assert_eq!(result.best_value, brute);
    // Bayesian search over the same space stays inside it and never beats
    // the exhaustive optimum — the tile search transfers unchanged.
    let bayes = Autotuner::bayesian(8, 5).run(&space, &objective);
    assert!(space.contains(&bayes.best));
    assert!(bayes.best_value >= result.best_value);
}
