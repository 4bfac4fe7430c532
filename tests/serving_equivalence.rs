//! Differential serving tests: the response *content* of `core::serve`
//! must be byte-identical across worker counts and cache temperatures.
//!
//! This is the serving layer's correctness contract (DESIGN.md §9): a
//! response is a pure function of the canonicalized request, so neither
//! the number of `support::par` worker bands, nor whether the answer came
//! from the content-addressed cache, nor the cache's eviction pressure
//! may change a single byte of it. Each test serves a seeded randomized
//! request stream two ways and compares the sorted
//! [`SimResponse::content_string`] sets.
//!
//! CI runs this suite under both `DEFCON_THREADS=1` and `=4`, which also
//! pins the default worker count (`ServeConfig::default().workers`
//! follows `DEFCON_THREADS`) against the explicit `workers: 1` baseline.

use defcon::core::serve::{
    RequestPolicy, ServeConfig, ServeDevice, ServeOutcome, SimRequest, SimResponse, SimServer,
};
use defcon::gpusim::{DeviceConfig, Gpu, SamplePolicy};
use defcon::kernels::backend::BackendKind;
use defcon::kernels::gemm_kernel::GemmKernel;
use defcon::kernels::op::{OpFamily, SamplingMethod};
use defcon::kernels::DeformLayerShape;
use defcon_support::error::DefconError;
use defcon_support::fault;
use defcon_support::rng::{Rng, SeedableRng, StdRng};

/// A seeded stream over tiny shapes, both devices, all three kernel
/// families, all three operator families (DCNv1/v2/v3), and two seeds —
/// small enough for debug-mode CI, varied enough to exercise hits,
/// misses, and mid-stream drains.
fn random_stream(seed: u64, n: usize) -> Vec<SimRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes = [
        DeformLayerShape::same3x3(4, 4, 10, 10),
        DeformLayerShape::same3x3(8, 8, 8, 8),
        DeformLayerShape::same3x3(8, 16, 6, 6),
    ];
    let devices = ServeDevice::all();
    let families = SamplingMethod::ladder();
    let ops = OpFamily::all();
    (0..n)
        .map(|_| SimRequest {
            device: devices[rng.gen_range(0..devices.len())],
            layer: shapes[rng.gen_range(0..shapes.len())],
            kernel_family: families[rng.gen_range(0..families.len())],
            op_family: ops[rng.gen_range(0..ops.len())],
            backend: BackendKind::Gpusim,
            policy: RequestPolicy {
                max_blocks: 16,
                seed: rng.gen_range(0u64..2),
                ..RequestPolicy::default()
            },
        })
        .collect()
}

fn sorted_contents(responses: &[SimResponse]) -> Vec<String> {
    let mut contents: Vec<String> = responses.iter().map(|r| r.content_string()).collect();
    contents.sort();
    contents
}

fn serve_fresh(cfg: ServeConfig, stream: &[SimRequest]) -> Vec<String> {
    let mut server = SimServer::new(cfg);
    let responses = server.serve(stream);
    assert_eq!(responses.len(), stream.len());
    sorted_contents(&responses)
}

#[test]
fn one_vs_four_workers_byte_identical() {
    let _quiet = fault::quiesce();
    let stream = random_stream(11, 24);
    let cfg = |workers| ServeConfig {
        workers,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    assert_eq!(
        serve_fresh(cfg(1), &stream),
        serve_fresh(cfg(4), &stream),
        "worker count changed response bytes"
    );
}

#[test]
fn default_workers_match_single_worker() {
    // ServeConfig::default() follows DEFCON_THREADS; whatever CI set it
    // to, content must equal the explicit single-worker serve.
    let _quiet = fault::quiesce();
    let stream = random_stream(12, 16);
    let default_cfg = ServeConfig {
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let pinned = ServeConfig {
        workers: 1,
        ..default_cfg
    };
    assert_eq!(
        serve_fresh(default_cfg, &stream),
        serve_fresh(pinned, &stream)
    );
}

#[test]
fn cold_vs_warm_cache_byte_identical() {
    let _quiet = fault::quiesce();
    let stream = random_stream(13, 24);
    let mut server = SimServer::new(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServeConfig::default()
    });
    let cold = server.serve(&stream);
    let hits_after_cold = server.cache().hits();
    let warm = server.serve(&stream);
    assert_eq!(
        sorted_contents(&cold),
        sorted_contents(&warm),
        "cache temperature changed response bytes"
    );
    assert!(warm.iter().all(|r| r.from_cache), "warm pass must hit");
    assert_eq!(server.cache().hits() - hits_after_cold, stream.len() as u64);
}

#[test]
fn eviction_pressure_changes_hit_rate_not_bytes() {
    let _quiet = fault::quiesce();
    let stream = random_stream(14, 24);
    let cfg = |cache_capacity| ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity,
        ..ServeConfig::default()
    };
    let mut tight = SimServer::new(cfg(2));
    let mut roomy = SimServer::new(cfg(256));
    let a = tight.serve(&stream);
    let b = roomy.serve(&stream);
    assert_eq!(sorted_contents(&a), sorted_contents(&b));
    assert!(
        tight.cache().evictions() > 0,
        "capacity 2 must evict on this stream"
    );
    assert_eq!(roomy.cache().evictions(), 0);
    assert!(tight.cache().hits() <= roomy.cache().hits());
}

#[test]
fn repeated_cold_runs_are_reproducible() {
    let _quiet = fault::quiesce();
    let stream = random_stream(15, 16);
    let cfg = ServeConfig {
        workers: 3,
        queue_capacity: 4,
        cache_capacity: 32,
        ..ServeConfig::default()
    };
    assert_eq!(serve_fresh(cfg, &stream), serve_fresh(cfg, &stream));
}

/// `random_stream` with a deadline mixed onto each request: unbudgeted,
/// impossibly tight (trips at the first launch), mid-range (may trip mid
/// ladder or mid launch sequence), and generous (never trips).
fn budgeted_stream(seed: u64, n: usize) -> Vec<SimRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
    random_stream(seed, n)
        .into_iter()
        .map(|mut req| {
            req.policy.deadline_cycles = match rng.gen_range(0u32..4) {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(10_000u64..10_000_000),
                _ => u64::MAX / 2,
            };
            req
        })
        .collect()
}

#[test]
fn deadline_verdicts_invariant_to_worker_count() {
    // The deadline budget is virtual time (simulated cycles), so the
    // worker count must not change a single verdict byte — including
    // which launch a mid-range budget trips at.
    let _quiet = fault::quiesce();
    let stream = budgeted_stream(16, 24);
    let cfg = |workers| ServeConfig {
        workers,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    assert_eq!(
        serve_fresh(cfg(1), &stream),
        serve_fresh(cfg(4), &stream),
        "worker count changed a deadline verdict"
    );
}

#[test]
fn deadline_verdicts_invariant_to_cache_temperature() {
    // A cache hit replays the verdict over the cached per-launch reports
    // (and exceeded requests are never cached), so warm serves must
    // render byte-identical responses — errors included.
    let _quiet = fault::quiesce();
    let stream = budgeted_stream(17, 24);
    let mut server = SimServer::new(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServeConfig::default()
    });
    let cold = server.serve(&stream);
    let warm = server.serve(&stream);
    assert_eq!(
        sorted_contents(&cold),
        sorted_contents(&warm),
        "cache temperature changed a deadline verdict"
    );
    // The stream's generous-budget requests must actually hit on the
    // warm pass — the invariant is vacuous otherwise.
    assert!(warm.iter().any(|r| r.from_cache));
}

/// A zero sampling budget (`max_blocks: 0`) is a request a caller can
/// build. `Gpu::try_launch` rejects it as a typed launch constraint before
/// sampling, at any engine thread count; the server walks every ladder
/// rung into that constraint and answers `Failed` — never a panic — and
/// caches nothing, at one and four workers.
#[test]
fn zero_block_budget_is_a_typed_uncached_failure() {
    let _quiet = fault::quiesce();
    let layer = DeformLayerShape::same3x3(4, 4, 10, 10);
    for threads in [1usize, 4] {
        let gpu = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy {
                max_blocks: 0,
                threads,
            },
        );
        let e = gpu.try_launch(&GemmKernel::for_conv(&layer)).unwrap_err();
        assert!(
            matches!(&e, DefconError::Constraint { what, .. } if what == "launch"),
            "threads={threads}: {e}"
        );
    }
    let reqs: Vec<SimRequest> = SamplingMethod::ladder()
        .into_iter()
        .map(|kernel_family| SimRequest {
            device: ServeDevice::XavierAgx,
            layer,
            kernel_family,
            op_family: OpFamily::DcnV1,
            backend: BackendKind::Gpusim,
            policy: RequestPolicy {
                max_blocks: 0,
                ..RequestPolicy::default()
            },
        })
        .collect();
    for workers in [1usize, 4] {
        let mut server = SimServer::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        for pass in 0..2 {
            let responses = server.serve(&reqs);
            assert_eq!(responses.len(), reqs.len());
            for r in &responses {
                assert_eq!(r.outcome, ServeOutcome::Failed, "pass {pass}");
                assert!(!r.from_cache && r.reports.is_empty());
                let error = r.error.as_deref().unwrap_or_default();
                assert!(
                    error.contains("max_blocks == 0"),
                    "workers={workers}: {error}"
                );
            }
        }
        assert_eq!(server.cache().len(), 0, "failures are never cached");
        assert_eq!(server.cache().hits(), 0);
    }
}
