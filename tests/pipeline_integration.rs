//! Cross-crate integration tests: the full DEFCON pipeline from
//! configuration to simulated speedup and numeric equivalence.

use defcon::core::pipeline::TileChoice;
use defcon::prelude::*;

#[test]
fn full_config_beats_baseline_on_a_paper_layer() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(128, 128, 69, 69);
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 1);

    let baseline_cfg = DefconConfig::baseline();
    let full_cfg = DefconConfig {
        tile: TileChoice::Autotuned { budget: 8 },
        ..DefconConfig::full()
    };

    let t_base = baseline_cfg
        .build_op(shape, &gpu)
        .simulate_total(&gpu, &x, &offsets)
        .0;
    let t_full = full_cfg
        .build_op(shape, &gpu)
        .simulate_total(&gpu, &x, &offsets)
        .0;
    let speedup = t_base / t_full;
    assert!(
        speedup > 1.5,
        "full DEFCON config should be well over 1.5x, got {speedup:.2}x"
    );
}

#[test]
fn numeric_equivalence_across_the_whole_operator_stack() {
    // The tensor-crate reference, the kernels-crate executor and the
    // tape-op must all agree on the same deformable convolution.
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(6, 8, 11, 11);
    let (x, offsets) = synthetic_inputs(&shape, 2.0, 2);
    let weight = Tensor::randn(&[8, 6, 3, 3], 0.0, 0.2, 3);

    let reference = defcon::tensor::sample::deform_conv2d_ref(
        &x,
        &offsets,
        defcon::tensor::sample::Modulation::None,
        &weight,
        None,
        &shape.deform_params(),
        OffsetTransform::Identity,
    );
    let op_out = DeformConvOp::baseline(shape).execute(&x, &offsets, &weight, &gpu);
    defcon::tensor::assert_close(&op_out, &reference, 1e-3, 1e-3);

    // Tape op (autograd path).
    let mut tape = Tape::new();
    let xv = tape.input(x.clone());
    let ov = tape.input(offsets.clone());
    let wv = tape.input(weight.clone());
    let y = defcon::nn::ops::deform_conv2d_op(
        &mut tape,
        xv,
        ov,
        None,
        wv,
        shape.deform_params(),
        OffsetTransform::Identity,
    );
    defcon::tensor::assert_close(tape.value(y), &reference, 1e-4, 1e-4);
}

#[test]
fn texture_limits_propagate_to_the_operator() {
    // Batch × channels beyond the 2048-layer limit must not silently
    // mis-simulate (paper §III-B): the texture path partitions the batch
    // and pays one launch per partition, and a single image whose
    // channels alone exceed the limit fails loudly.
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape {
        n: 5,
        ..DeformLayerShape::same3x3(512, 64, 8, 8)
    };
    assert!(shape.n * shape.c_in > 2048);
    let (x, offsets) = synthetic_inputs(&shape, 2.0, 4);
    let op = DeformConvOp {
        method: SamplingMethod::Tex2d,
        ..DeformConvOp::baseline(shape)
    };
    let reports = op.simulate_deform(&gpu, &x, &offsets);
    assert_eq!(reports.len(), 2, "4 images of 512 channels per partition");
    let wide = DeformLayerShape::same3x3(2100, 4, 4, 4);
    let (x, offsets) = synthetic_inputs(&wide, 2.0, 4);
    let op = DeformConvOp { shape: wide, ..op };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        op.simulate_deform(&gpu, &x, &offsets)
    }));
    assert!(
        result.is_err(),
        "one image beyond the layered-texture limit must panic"
    );
}

#[test]
fn latency_lut_orders_predictors_and_devices_sensibly(
) -> Result<(), defcon_support::error::DefconError> {
    use defcon::core::lut::{LatencyKey, LatencyLut};
    let key = LatencyKey {
        c_in: 128,
        c_out: 128,
        h: 69,
        w: 69,
        stride: 1,
    };
    let xavier = Gpu::new(DeviceConfig::xavier_agx());
    let turing = Gpu::new(DeviceConfig::rtx2080ti());

    let lut_x = LatencyLut::build(
        &xavier,
        &[key],
        SamplingMethod::SoftwareBilinear,
        OffsetPredictorKind::Standard,
        OpFamily::DcnV1,
    );
    let lut_t = LatencyLut::build(
        &turing,
        &[key],
        SamplingMethod::SoftwareBilinear,
        OffsetPredictorKind::Standard,
        OpFamily::DcnV1,
    );
    // The discrete GPU is far faster in absolute terms.
    assert!(lut_t.get(&key).unwrap().deform_ms < lut_x.get(&key).unwrap().deform_ms);

    let lut_light = LatencyLut::build(
        &xavier,
        &[key],
        SamplingMethod::Tex2dPlusPlus,
        OffsetPredictorKind::Lightweight,
        OpFamily::DcnV1,
    );
    assert!(lut_light.dcn_overhead_ms(&key)? < lut_x.dcn_overhead_ms(&key)?);
    Ok(())
}

#[test]
fn bounded_offsets_identical_numerics_when_in_range() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(4, 4, 10, 10);
    let (x, offsets) = synthetic_inputs(&shape, 3.0, 5); // within ±3 < 7
    let weight = Tensor::randn(&[4, 4, 3, 3], 0.0, 0.2, 6);
    let id = DeformConvOp::baseline(shape).execute(&x, &offsets, &weight, &gpu);
    let bounded = DeformConvOp {
        offset_transform: OffsetTransform::Bounded(7.0),
        ..DeformConvOp::baseline(shape)
    }
    .execute(&x, &offsets, &weight, &gpu);
    assert_eq!(id.data(), bounded.data());
}

#[test]
fn rounding_changes_numerics_but_bounding_does_not() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(4, 4, 10, 10);
    let (x, offsets) = synthetic_inputs(&shape, 3.0, 7);
    let weight = Tensor::randn(&[4, 4, 3, 3], 0.0, 0.2, 8);
    let id = DeformConvOp::baseline(shape).execute(&x, &offsets, &weight, &gpu);
    let rounded = DeformConvOp {
        offset_transform: OffsetTransform::Rounded,
        ..DeformConvOp::baseline(shape)
    }
    .execute(&x, &offsets, &weight, &gpu);
    let max_err = id
        .data()
        .iter()
        .zip(rounded.data().iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        max_err > 1e-3,
        "integer rounding must actually change sampling"
    );
}
