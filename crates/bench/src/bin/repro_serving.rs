//! `repro_serving` — a fixed 16-request throughput-serving session.
//!
//! Eight distinct `(device, layer, kernel-family)` requests are submitted
//! twice through a capacity-8 admission queue: the 9th submission
//! overflows, forcing a mid-session drain, so the first half simulates
//! cold (8 misses) and the replayed half is answered entirely from the
//! content-addressed report cache (8 hits, hit rate 0.50, 1 shed).
//!
//! The session is fully deterministic — it backs the golden obs trace in
//! `crates/bench/tests/golden/serving_trace.json`. `DEFCON_TINY=1` uses
//! the tiny layer sweep; `DEFCON_JSON=1` appends a JSON report line;
//! `DEFCON_TRACE=<path>` records the trace.

use defcon_bench::{emit_json, f2, Table};
use defcon_core::serve::{fnv1a64, RequestPolicy, ServeConfig, ServeDevice, SimRequest, SimServer};
use defcon_kernels::backend::BackendKind;
use defcon_kernels::op::{OpFamily, SamplingMethod};
use defcon_support::json::Json;

/// 16 requests: 8 distinct, then the same 8 again.
fn session_requests() -> Vec<SimRequest> {
    let sweep = defcon_bench::layer_sweep();
    let devices = ServeDevice::all();
    let families = SamplingMethod::ladder();
    let distinct: Vec<SimRequest> = (0..8)
        .map(|i| SimRequest {
            device: devices[(i / 2) % devices.len()],
            layer: sweep[i % sweep.len()],
            kernel_family: families[i % families.len()],
            // Pinned to v1: the session backs the serving golden trace,
            // whose canonical request bytes predate the op_family field.
            op_family: OpFamily::DcnV1,
            backend: BackendKind::Gpusim,
            policy: RequestPolicy::default(),
        })
        .collect();
    let mut reqs = distinct.clone();
    reqs.extend(distinct);
    reqs
}

fn main() {
    let _obs = defcon_bench::obs_scope();
    println!("DEFCON throughput-mode serving: 16 requests, capacity-8 queue");
    println!("=============================================================");

    let mut server = SimServer::new(ServeConfig {
        queue_capacity: 8,
        ..ServeConfig::default()
    });
    let reqs = session_requests();
    let responses = server.serve(&reqs);

    let mut table = Table::new(&[
        "#",
        "device",
        "layer",
        "requested",
        "served",
        "cache",
        "sim ms",
    ]);
    for (i, r) in responses.iter().enumerate() {
        let l = &r.request.layer;
        let ms: f64 = r.reports.iter().map(|k| k.time_ms).sum();
        table.row(&[
            format!("{i}"),
            r.request.device.canonical_name().to_string(),
            format!("{}x{}x{}x{}", l.c_in, l.c_out, l.h, l.w),
            r.request.kernel_family.name().to_string(),
            r.method.name().to_string(),
            if r.from_cache { "hit" } else { "miss" }.to_string(),
            f2(ms),
        ]);
    }
    table.print();

    let mut contents: Vec<String> = responses.iter().map(|r| r.content_string()).collect();
    contents.sort();
    let digest = fnv1a64(contents.join("\n").as_bytes());

    let cache = server.cache();
    println!();
    println!(
        "requests {}  hits {}  misses {}  hit-rate {:.2}  sheds {}  evictions {}",
        responses.len(),
        cache.hits(),
        cache.misses(),
        cache.hit_rate(),
        server.sheds(),
        cache.evictions(),
    );
    println!("report digest {digest:016x}");

    emit_json(&Json::obj(vec![
        ("experiment", Json::str("serving")),
        ("requests", Json::from(responses.len())),
        ("cache_hits", Json::from(server.cache().hits())),
        ("cache_misses", Json::from(server.cache().misses())),
        ("hit_rate", Json::from(server.cache().hit_rate())),
        ("sheds", Json::from(server.sheds())),
        ("digest", Json::str(format!("{digest:016x}"))),
    ]));
}
