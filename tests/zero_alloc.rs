//! The zero-allocation trace contract, pinned.
//!
//! Installs the per-thread counting allocator from `defcon_support` and
//! asserts that — after kernel and sink construction — tracing blocks of
//! every kernel family performs **zero** heap allocations. This is the
//! invariant the hot-path rework establishes: all warp-level event staging
//! goes through the sink's fixed-capacity `LaneBuf` scratch and the
//! iterator-based `_into` entry points, never through per-instruction
//! `Vec`s.
//!
//! Layer shape: the paper's exhaustive Table II layer (16×16 channels,
//! 550×550), the same layer the hot-path benchmark times.

use defcon::gpusim::cache::Cache;
use defcon::gpusim::device::DeviceConfig;
use defcon::gpusim::trace::{BlockTrace, TraceSink};
use defcon::kernels::fused::FusedTexDeformKernel;
use defcon::kernels::gemm_kernel::{DepthwiseConvKernel, GemmKernel, RegularConvKernel};
use defcon::kernels::im2col::Im2colDeformKernel;
use defcon::kernels::op::{
    synthetic_inputs, synthetic_modulation, DeformConvOp, OpFamily, SamplingMethod,
};
use defcon::kernels::DeformLayerShape;
use defcon_support::testalloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Traces up to `max_blocks` blocks of `kernel` through a fresh sink and
/// returns the number of heap allocations the traced region performed.
fn allocations_tracing(kernel: &dyn BlockTrace, cfg: &DeviceConfig, max_blocks: usize) -> u64 {
    let mut l1 = Cache::new(cfg.l1);
    let mut tex = Cache::new(cfg.tex_cache);
    let mut l2 = Cache::new(cfg.l2);
    let warps = kernel.block_threads().div_ceil(cfg.warp_size);
    let mut sink = TraceSink::new(cfg, &mut l1, &mut tex, &mut l2, warps);
    let blocks = kernel.grid_blocks().min(max_blocks);
    assert!(blocks > 0, "kernel has an empty grid");
    let before = thread_allocations();
    for b in 0..blocks {
        kernel.trace_block(b, &mut sink);
    }
    thread_allocations() - before
}

fn table2_shape() -> DeformLayerShape {
    DeformLayerShape::same3x3(16, 16, 550, 550)
}

/// A `family` operator with `method` sampling on the Table II layer.
fn table2_op(method: SamplingMethod, family: OpFamily) -> DeformConvOp {
    DeformConvOp {
        method,
        family,
        ..DeformConvOp::baseline(table2_shape())
    }
}

/// The disarmed observability layer is part of the zero-allocation
/// contract: every `obs::` entry point on a hot path must reduce to one
/// relaxed atomic load when no trace is armed — no allocation, no closure
/// evaluation, no registry touch. (This test binary never arms obs, so the
/// whole process runs disarmed.)
#[test]
fn disarmed_obs_layer_does_not_allocate() {
    use defcon_support::json::Json;
    use defcon_support::obs;
    let before = thread_allocations();
    for i in 0..1024u64 {
        let span = obs::span_with("zalloc.span", || vec![("iter", Json::from(i))]);
        span.record("extra", Json::from(i));
        obs::event("zalloc.event");
        obs::event_with("zalloc.event2", || vec![("iter", Json::from(i))]);
        obs::counter_add("zalloc.counter", i);
        obs::gauge_set("zalloc.gauge", i as f64);
        assert!(!obs::armed());
        drop(span);
    }
    assert_eq!(thread_allocations() - before, 0);
}

/// The retry backoff schedule is consulted on the serving layer's
/// admission path (potentially per request under overload), so computing
/// a backoff pause must not touch the heap: it is pure integer/FNV
/// arithmetic over `(seed, attempt)`.
#[test]
fn retry_backoff_schedule_does_not_allocate() {
    use defcon_support::retry::RetryPolicy;
    let policy = RetryPolicy::default();
    // Warm anything lazily initialised, then measure.
    let mut sink = policy.backoff_cycles(0);
    let before = thread_allocations();
    for attempt in 0..256u32 {
        sink = sink.wrapping_add(policy.backoff_cycles(attempt));
        sink = sink.wrapping_add(policy.envelope_cycles(attempt));
        sink = sink.wrapping_add(policy.total_backoff_cycles(attempt));
    }
    assert_eq!(thread_allocations() - before, 0);
    assert_ne!(sink, 0, "schedule must produce nonzero pauses");
}

#[test]
fn im2col_software_traces_without_allocating() {
    let (x, off) = synthetic_inputs(&table2_shape(), 2.0, 11);
    let cfg = DeviceConfig::xavier_agx();
    let op = table2_op(SamplingMethod::SoftwareBilinear, OpFamily::DcnV1);
    let k = Im2colDeformKernel::new(&op, &x, &off, cfg.texture_limits()).unwrap();
    assert_eq!(allocations_tracing(&k, &cfg, 4), 0);
}

#[test]
fn im2col_texture_traces_without_allocating() {
    let (x, off) = synthetic_inputs(&table2_shape(), 2.0, 12);
    let cfg = DeviceConfig::xavier_agx();
    let op = table2_op(SamplingMethod::Tex2d, OpFamily::DcnV1);
    let k = Im2colDeformKernel::new(&op, &x, &off, cfg.texture_limits()).unwrap();
    assert_eq!(allocations_tracing(&k, &cfg, 4), 0);
}

#[test]
fn fused_texture_traces_without_allocating() {
    let (x, off) = synthetic_inputs(&table2_shape(), 2.0, 13);
    let cfg = DeviceConfig::xavier_agx();
    let op = table2_op(SamplingMethod::Tex2dPlusPlus, OpFamily::DcnV1);
    let k = FusedTexDeformKernel::new(&op, &x, &off, &cfg).unwrap();
    assert_eq!(allocations_tracing(&k, &cfg, 2), 0);
}

/// The modulated (DCNv2) and sparse-softmax (DCNv3) variants stay on the
/// zero-allocation trace path: their extra modulation loads and softmax
/// arithmetic go through the same `_into` sink entry points as v1, with a
/// real modulation tensor attached so the address stream is exercised.
#[test]
fn modulated_and_sparse_kernels_trace_without_allocating() {
    let shape = table2_shape();
    let (x, off) = synthetic_inputs(&shape, 2.0, 14);
    let cfg = DeviceConfig::xavier_agx();
    for family in [OpFamily::DcnV2, OpFamily::DcnV3] {
        let tex2d = DeformConvOp {
            modulation: synthetic_modulation(&shape, family, 14),
            ..table2_op(SamplingMethod::Tex2d, family)
        };
        let im2col = Im2colDeformKernel::new(&tex2d, &x, &off, cfg.texture_limits()).unwrap();
        assert_eq!(
            allocations_tracing(&im2col, &cfg, 2),
            0,
            "{family:?} im2col"
        );
        let tex2dpp = DeformConvOp {
            method: SamplingMethod::Tex2dPlusPlus,
            ..tex2d.clone()
        };
        let fused = FusedTexDeformKernel::new(&tex2dpp, &x, &off, &cfg).unwrap();
        assert_eq!(allocations_tracing(&fused, &cfg, 2), 0, "{family:?} fused");
    }
}

/// A layered texture is a view of the tensor it samples (layer `n·C + c`
/// is the NCHW slice `(n, c)`), so binding one for either texture kernel
/// allocates nothing: no copy of the 550×550 input.
#[test]
fn binding_a_texture_copies_nothing() {
    let (x, off) = synthetic_inputs(&table2_shape(), 2.0, 15);
    let cfg = DeviceConfig::xavier_agx();
    let tex2d = table2_op(SamplingMethod::Tex2d, OpFamily::DcnV1);
    let tex2dpp = table2_op(SamplingMethod::Tex2dPlusPlus, OpFamily::DcnV1);
    let before = thread_allocations();
    let im2col = Im2colDeformKernel::new(&tex2d, &x, &off, cfg.texture_limits());
    let fused = FusedTexDeformKernel::new(&tex2dpp, &x, &off, &cfg);
    let allocations = thread_allocations() - before;
    assert!(im2col.is_ok_and(|k| k.texture.is_some()), "tex2D binds");
    assert!(fused.is_ok(), "tex2D++ binds");
    assert_eq!(allocations, 0);
}

#[test]
fn gemm_traces_without_allocating() {
    let cfg = DeviceConfig::xavier_agx();
    let k = GemmKernel::for_conv(&table2_shape());
    assert_eq!(allocations_tracing(&k, &cfg, 2), 0);
}

#[test]
fn regular_conv_traces_without_allocating() {
    let cfg = DeviceConfig::xavier_agx();
    let k = RegularConvKernel::new(table2_shape(), "offset_conv");
    assert_eq!(allocations_tracing(&k, &cfg, 4), 0);
}

#[test]
fn depthwise_conv_traces_without_allocating() {
    let cfg = DeviceConfig::xavier_agx();
    let k = DepthwiseConvKernel {
        shape: table2_shape(),
    };
    assert_eq!(allocations_tracing(&k, &cfg, 4), 0);
}

/// The accel backend's inner tile loop — plan indexing, per-tile halo
/// extents, per-tile cycle costs, and the totals accumulation — is pure
/// index arithmetic over precomputed structs: walking every tile of the
/// paper's exhaustive Table II layer performs zero heap allocations.
/// (`TilePlan::tiles()` is a counting iterator, not a materialized list.)
#[test]
fn accel_tile_loop_does_not_allocate() {
    use defcon::accel::{Accel, AccelConfig};
    use defcon::kernels::DeformConvOp;

    let accel = Accel::new(AccelConfig::edge());
    let op = DeformConvOp::baseline(table2_shape());
    // Plan and model construction may allocate; the tile walk may not.
    let plan = accel.plan(&op);
    let model = accel.cycle_model(&op);
    assert!(plan.num_tiles() > 1, "a multi-tile plan exercises the loop");
    // Warm anything lazily initialised, then measure.
    let mut sink = model.totals(&plan);
    let before = thread_allocations();
    for _ in 0..4 {
        sink = model.totals(&plan);
    }
    assert_eq!(thread_allocations() - before, 0);
    assert!(sink.total_cycles > 0, "the walk must produce real totals");
}
