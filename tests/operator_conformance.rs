//! Differential conformance for the deformable operator family
//! {DCNv1, DCNv2, DCNv3} × {software, tex2D, tex2D++} × {1, 4 threads}.
//!
//! The contract (DESIGN.md §10) has three layers:
//!
//! 1. **Numeric** — every family on every sampling path agrees with its
//!    CPU reference (`DeformConvOp::reference`: `deform_conv2d_ref` with
//!    the family's modulation), and the family reductions hold
//!    **byte-for-byte on each path**: DCNv2 with an all-ones mask (or no
//!    mask at all) is DCNv1, and DCNv3 with constant logits is the uniform
//!    1/k² average — expressed as a DCNv2 flat mask of exactly `fl(1/k²)`
//!    so the comparison is bitwise, not tolerant.
//!    For fixed offsets, `execute` is linear in the input on both backends
//!    within a stated fp32 rounding bound.
//! 2. **Timing** — the simulated reports are a function of the *family*,
//!    never of the modulation values (a trace may not depend on data), are
//!    reproducible at a fixed thread count, and are byte-identical at 1
//!    and 4 threads, as `tests/engine_parallel_equivalence.rs` checks.
//! 3. **Naming** — v2/v3 launches are distinguishable in traces via the
//!    `_dcnv2` / `_dcnv3` label suffix while v1 labels stay byte-identical
//!    to the pre-family kernels (goldens must not move).
//!
//! CI runs this suite under both `DEFCON_THREADS=1` and `=4`, which adds
//! the data-parallel worker dimension to every numeric cell as well.

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

/// Per-method numeric tolerance against the CPU reference: software and
/// fp32-filter tex2D track it closely; tex2D++'s 8-bit fractions are the
/// documented quantization (same bounds as the v1 tests in `op.rs`).
fn tolerance(method: SamplingMethod) -> (f32, f32) {
    match method {
        SamplingMethod::Tex2dPlusPlus => (0.05, 0.02),
        _ => (1e-3, 1e-3),
    }
}

#[test]
fn every_family_and_path_agrees_with_its_reference() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    for shape in [small_shape(), grouped_shape()] {
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 42);
        let w = weight_for(&shape, 43);
        // Each family with its synthetic modulation, and the modulated
        // families also with none (their neutral element).
        for family in OpFamily::all() {
            let modulations = match synthetic_modulation(&shape, family, 7) {
                Some(m) => vec![Some(m), None],
                None => vec![None],
            };
            for modulation in modulations {
                for method in SamplingMethod::ladder() {
                    let op = op_with(shape, family, method, modulation.clone());
                    let got = op.execute(&x, &offsets, &w, &gpu);
                    let (rtol, atol) = tolerance(method);
                    let expect = op.reference(&x, &offsets, &w);
                    defcon::tensor::assert_close(&got, &expect, rtol, atol);
                }
            }
        }
    }
}

#[test]
fn v2_with_all_ones_mask_is_v1_bytewise_on_every_path() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    for shape in [small_shape(), grouped_shape()] {
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 44);
        let w = weight_for(&shape, 45);
        let (oh, ow) = shape.out_hw();
        let mc = shape.deform_groups * shape.kernel * shape.kernel;
        let ones = Tensor::full(&[shape.n, mc, oh, ow], 1.0);
        for method in SamplingMethod::ladder() {
            let v1 = op_with(shape, OpFamily::DcnV1, method, None).execute(&x, &offsets, &w, &gpu);
            let v2_ones = op_with(shape, OpFamily::DcnV2, method, Some(ones.clone()))
                .execute(&x, &offsets, &w, &gpu);
            let v2_none =
                op_with(shape, OpFamily::DcnV2, method, None).execute(&x, &offsets, &w, &gpu);
            assert_eq!(
                v1.data(),
                v2_ones.data(),
                "all-ones mask changed bytes on {} {shape:?}",
                method.name()
            );
            assert_eq!(
                v1.data(),
                v2_none.data(),
                "neutral (absent) mask changed bytes on {} {shape:?}",
                method.name()
            );
        }
    }
}

#[test]
fn v3_with_constant_logits_is_the_uniform_average_bytewise_on_every_path() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    for shape in [small_shape(), grouped_shape()] {
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 46);
        let w = weight_for(&shape, 47);
        let (oh, ow) = shape.out_hw();
        let kk = shape.kernel * shape.kernel;
        let mc = shape.deform_groups * kk;
        // Any constant c: softmax over equal logits is exactly 1/k² per
        // tap (exp(0) == 1.0 is exact, the sum is the exact integer k²).
        let constant = Tensor::full(&[shape.n, mc, oh, ow], 0.875);
        // The uniform average, expressed through the v2 path: a flat mask
        // of exactly fl(1/k²), the same f32 the softmax produces.
        let flat = Tensor::full(&[shape.n, mc, oh, ow], (1.0f64 / kk as f64) as f32);
        for method in SamplingMethod::ladder() {
            let v3_const = op_with(shape, OpFamily::DcnV3, method, Some(constant.clone()))
                .execute(&x, &offsets, &w, &gpu);
            let v3_none =
                op_with(shape, OpFamily::DcnV3, method, None).execute(&x, &offsets, &w, &gpu);
            let v2_flat = op_with(shape, OpFamily::DcnV2, method, Some(flat.clone()))
                .execute(&x, &offsets, &w, &gpu);
            assert_eq!(
                v3_const.data(),
                v3_none.data(),
                "neutral (absent) logits diverged from constant logits on {}",
                method.name()
            );
            assert_eq!(
                v3_const.data(),
                v2_flat.data(),
                "constant-logit softmax is not the uniform 1/k^2 average on {}",
                method.name()
            );
        }
    }
}

/// Linearity in the input, an oracle independent of the implementation:
/// for fixed offsets and modulation, every sampler weights the texels it
/// reads by factors of the coordinates alone (tex2D++'s quantized filter
/// included) and the GEMM is linear, so `execute(a·x1 + b·x2)` equals
/// `a·execute(x1) + b·execute(x2)` up to rounding; signed powers of two
/// scale fp32 exactly. Output channel `co` sums `K = C_in·k²` terms `w·m·s`,
/// each sample a sum of at most four texels under non-negative weights
/// summing to at most 1, so `M = ‖w[co]‖₁ · max|m| · (|a|·‖x1‖∞ + |b|·‖x2‖∞)`
/// bounds `Σ|w·m·s|`. Each side is then within `γ(K+6)·M` of the exact value
/// (`γ(n) = n·u/(1 − n·u)`, `u = 2⁻²⁴`), and rounding the input and output
/// sums adds `2u·M`: the stated bound `(K + 8)·ε·M`, `ε = 2⁻²³`, covers it.
/// Every family × sampler, on both backends.
#[test]
fn execute_is_linear_in_the_input() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let accel = Accel::new(AccelConfig::edge());
    let (a, b) = (2.0f32, -0.25f32);
    let max_abs = |t: &Tensor| t.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for shape in [small_shape(), grouped_shape()] {
        let (x1, offsets) = synthetic_inputs(&shape, 2.0, 52);
        let x2 = Tensor::randn(x1.dims(), 0.0, 1.0, 53);
        let w = weight_for(&shape, 54);
        let k = shape.c_in * shape.kernel * shape.kernel;
        let plane = shape.out_hw().0 * shape.out_hw().1;
        let x_scale = a.abs() * max_abs(&x1) + b.abs() * max_abs(&x2);
        for family in OpFamily::all() {
            let modulation = synthetic_modulation(&shape, family, 55);
            // A v3 softmax weight is at most 1; v2 multiplies by the mask.
            let m_max = match (family, &modulation) {
                (OpFamily::DcnV2, Some(mask)) => max_abs(mask),
                _ => 1.0,
            };
            for method in SamplingMethod::ladder() {
                let op = op_with(shape, family, method, modulation.clone());
                for backend in [&gpu as &dyn Backend, &accel] {
                    let run = |x: &Tensor| backend.execute(&op, x, &offsets, &w);
                    let lhs = run(&x1.scale(a).add(&x2.scale(b)));
                    let rhs = run(&x1).scale(a).add(&run(&x2).scale(b));
                    for (i, (l, r)) in lhs.data().iter().zip(rhs.data()).enumerate() {
                        let co = (i / plane) % shape.c_out;
                        let w_l1: f32 =
                            w.data()[co * k..(co + 1) * k].iter().map(|v| v.abs()).sum();
                        let m = f64::from(w_l1) * f64::from(m_max) * f64::from(x_scale);
                        let bound = (k + 8) as f64 * f64::from(f32::EPSILON) * m;
                        assert!(
                            f64::from((l - r).abs()) <= bound,
                            "{} {} on {}: output {i} is {l} against {r} (bound {bound:e})",
                            family.name(),
                            method.name(),
                            backend.backend_name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn reports_depend_on_family_but_never_on_modulation_values() {
    use defcon_support::json::ToJson;
    let gpu = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(1),
    );
    let shape = small_shape();
    let (x, offsets) = synthetic_inputs(&shape, 2.0, 48);
    let json = |op: &DeformConvOp| -> String {
        op.simulate_total(&gpu, &x, &offsets)
            .1
            .iter()
            .map(|r| r.to_json().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    for family in OpFamily::all() {
        for method in SamplingMethod::ladder() {
            let with_none = json(&op_with(shape, family, method, None));
            let with_values = json(&op_with(
                shape,
                family,
                method,
                synthetic_modulation(&shape, family, 9),
            ));
            assert_eq!(
                with_none,
                with_values,
                "a trace leaked modulation *values* ({} {})",
                family.name(),
                method.name()
            );
        }
    }
    // The family itself must be visible: v2/v3 pay for the modulation
    // loads, so their deform-stage reports cannot equal v1's.
    for method in SamplingMethod::ladder() {
        let v1 = json(&op_with(shape, OpFamily::DcnV1, method, None));
        let v2 = json(&op_with(shape, OpFamily::DcnV2, method, None));
        let v3 = json(&op_with(shape, OpFamily::DcnV3, method, None));
        assert_ne!(v1, v2, "{} trace ignored the v2 mask", method.name());
        assert_ne!(v2, v3, "{} trace ignored the v3 softmax", method.name());
    }
}

#[test]
fn four_thread_reports_keep_the_engine_contract_for_every_cell() {
    use defcon_support::json::ToJson;
    let gpu1 = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(1),
    );
    let gpu4 = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(4),
    );
    let shape = DeformLayerShape::same3x3(16, 16, 35, 35);
    let (x, offsets) = synthetic_inputs(&shape, 2.0, 49);
    let json = |gpu: &Gpu, op: &DeformConvOp| -> Vec<String> {
        op.simulate_deform(gpu, &x, &offsets)
            .iter()
            .map(|r| r.to_json().to_string())
            .collect()
    };
    for family in OpFamily::all() {
        for method in SamplingMethod::ladder() {
            let op = op_with(shape, family, method, None);
            assert_eq!(
                json(&gpu4, &op),
                json(&gpu1, &op),
                "{} {}: 4-thread reports differ from 1-thread",
                family.name(),
                method.name()
            );
        }
    }
}

#[test]
fn family_labels_suffix_v2_v3_and_leave_v1_untouched() {
    let gpu = Gpu::with_policy(
        DeviceConfig::xavier_agx(),
        SamplePolicy::default().with_threads(1),
    );
    let shape = small_shape();
    let (x, offsets) = synthetic_inputs(&shape, 2.0, 50);
    for method in SamplingMethod::ladder() {
        for family in OpFamily::all() {
            let op = op_with(shape, family, method, None);
            let deform = &op.simulate_deform(&gpu, &x, &offsets)[0];
            match family {
                OpFamily::DcnV1 => assert!(
                    !deform.kernel.contains("dcnv"),
                    "v1 label must stay byte-identical to the pre-family kernels: {}",
                    deform.kernel
                ),
                OpFamily::DcnV2 => assert!(
                    deform.kernel.ends_with("_dcnv2"),
                    "missing _dcnv2 suffix: {}",
                    deform.kernel
                ),
                OpFamily::DcnV3 => assert!(
                    deform.kernel.ends_with("_dcnv3"),
                    "missing _dcnv3 suffix: {}",
                    deform.kernel
                ),
            }
        }
    }
}

#[test]
fn fixed_thread_count_is_reproducible_for_every_cell() {
    for threads in [1usize, 4] {
        let gpu = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy::default().with_threads(threads),
        );
        let shape = small_shape();
        let (x, offsets) = synthetic_inputs(&shape, 2.0, 51);
        for family in OpFamily::all() {
            for method in SamplingMethod::ladder() {
                use defcon_support::json::ToJson;
                let op = op_with(
                    shape,
                    family,
                    method,
                    synthetic_modulation(&shape, family, 12),
                );
                let run = || -> String {
                    op.simulate_total(&gpu, &x, &offsets)
                        .1
                        .iter()
                        .map(|r| r.to_json().to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                };
                assert_eq!(
                    run(),
                    run(),
                    "threads={threads} {} {} not reproducible",
                    family.name(),
                    method.name()
                );
            }
        }
    }
}
