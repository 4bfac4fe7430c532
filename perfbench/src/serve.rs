//! `serve_zipf` — closed-loop serving: one client, one request
//! outstanding, each sent as `SimServer::serve(&[req])`.
//!
//! Requests come from a seeded Zipf(1) stream over a fixed catalogue of
//! 576 requests: 4 serving shapes × 2 devices × 3 sampling methods × 3 op
//! families × 2 backends × 4 input seeds, shuffled once with a fixed seed
//! so popularity does not follow the catalogue's order. `--seed` drives
//! the timed stream only. The server runs the default configuration on one
//! worker with a 256-entry report cache, smaller than the catalogue.
//! [`WARMUP`] untimed requests from a stream of a fixed seed warm the cache
//! before the timed window, so every run's set-up does the same work.
//!
//! Why: this is the only workload with reuse and with cache writes beside
//! reads. About three quarters of requests hit the cache in microseconds,
//! the rest are gpusim misses (tens of ms) or accel misses (about 1 ms),
//! so a `core::serve` change moves p50 and a simulator change moves p99
//! and requests per second.
//!
//! Correctness: every response must be `ServeOutcome::Served` and equal,
//! byte for byte, the same request answered cold by a fresh server that
//! caches nothing; the order-independent digest of the timed responses
//! must equal that of their cold replays. `ops_per_s` is requests over
//! the summed request latencies (a closed loop with no think time), so the
//! client's own checking between requests is not counted.

use crate::{
    end_to_end, median, print_figures, ratio, timed_setup, Args, ClassStats, HostClock, Layers,
    RepeatCounter, RunResult, Timed, Tracer, Zipf,
};
use defcon_accel::{Accel, AccelConfig};
use defcon_core::serve::{
    fnv1a64, RequestPolicy, ServeConfig, ServeDevice, ServeOutcome, SimRequest, SimResponse,
    SimServer,
};
use defcon_kernels::backend::BackendKind;
use defcon_kernels::op::{synthetic_inputs, OpFamily, SamplingMethod};
use defcon_kernels::{DeformConvOp, DeformLayerShape};
use defcon_support::rng::{SeedableRng, SliceRandom, StdRng};
use std::time::Instant;

/// The serving shapes: `(channels, extent)` of a same-padded 3×3 layer.
pub const SHAPES: [(usize, usize); 4] = [(32, 35), (64, 35), (64, 18), (128, 18)];
/// Input seeds per (shape, device, method, family, backend).
pub const INPUT_SEEDS: u64 = 4;
/// Report-cache entries (the server default), below the catalogue size.
pub const CACHE_CAPACITY: usize = 256;
/// Untimed requests that warm the cache before the timed window: by then
/// the stream has touched about 220 distinct requests, most of what the
/// cache holds.
pub const WARMUP: usize = 600;

/// The timed stream of run seed `seed` over `n` catalogue ranks.
pub fn timed_stream(n: usize, seed: u64) -> Zipf {
    Zipf::new(n, fnv1a64(format!("serve_zipf/{seed}").as_bytes()))
}

/// The warm-up stream, the same in every run. Its seed is hashed from a
/// name no run seed formats to, so it never repeats a timed stream.
pub fn warmup_stream(n: usize) -> Zipf {
    Zipf::new(n, fnv1a64(b"serve_zipf/warm-up"))
}
/// Fixed seed of the catalogue's popularity order. The upper tail of the
/// latency distribution is a staircase of request classes (about 200 ms
/// for 128-channel texture misses on the 2080 Ti, about 115 ms for
/// 64-channel 35² ones, 70 ms and below for the rest). On most orders p99
/// sits on the edge between the top two steps and jumps between them from
/// one stream seed to the next; of the first 60 seeded shuffles, replayed
/// through the LRU cache with per-class costs over 40 unstratified stream
/// seeds, this one kept p99 inside one step every time.
const CATALOGUE_ORDER_SEED: u64 = 14;

/// The request catalogue, most popular (Zipf rank 0) first.
pub fn catalogue() -> Vec<SimRequest> {
    let mut out = Vec::new();
    for (c, hw) in SHAPES {
        for device in ServeDevice::all() {
            for kernel_family in SamplingMethod::ladder() {
                for op_family in OpFamily::all() {
                    for backend in [BackendKind::Gpusim, BackendKind::Accel] {
                        for s in 0..INPUT_SEEDS {
                            out.push(SimRequest {
                                device,
                                layer: DeformLayerShape::same3x3(c, c, hw, hw),
                                kernel_family,
                                op_family,
                                backend,
                                policy: RequestPolicy {
                                    seed: RequestPolicy::default().seed + s,
                                    ..RequestPolicy::default()
                                },
                            });
                        }
                    }
                }
            }
        }
    }
    out.shuffle(&mut StdRng::seed_from_u64(CATALOGUE_ORDER_SEED));
    out
}

/// The server configuration: defaults, one worker (the shipped default,
/// pinned so the environment cannot change it), `cache_capacity` entries.
pub fn config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: 1,
        cache_capacity,
        ..ServeConfig::default()
    }
}

fn serve_one(server: &mut SimServer, req: &SimRequest) -> SimResponse {
    server
        .serve(std::slice::from_ref(req))
        .pop()
        .expect("serve answers every request")
}

/// Checks every response against the cold replay as it arrives, so the
/// run keeps no responses in memory.
struct Check {
    cold_text: Vec<String>,
    cold_fnv: Vec<u64>,
    failed: u64,
    /// Order-independent digests (wrapping sums of per-response FNV) of
    /// the timed responses and of their cold replays.
    timed_digest: u64,
    replay_digest: u64,
}

impl Check {
    fn new(cold: &[SimResponse]) -> Check {
        let cold_text: Vec<String> = cold.iter().map(SimResponse::content_string).collect();
        Check {
            cold_fnv: cold_text.iter().map(|t| fnv1a64(t.as_bytes())).collect(),
            cold_text,
            failed: 0,
            timed_digest: 0,
            replay_digest: 0,
        }
    }

    fn response(&mut self, i: usize, resp: &SimResponse, timed: bool) {
        let text = resp.content_string();
        if resp.outcome != ServeOutcome::Served || text != self.cold_text[i] {
            if self.failed < 3 {
                println!(
                    "serve_zipf FAILED: {} ended {} and differs from its cold replay",
                    resp.request.canonical_string(),
                    resp.outcome.name()
                );
            }
            self.failed += 1;
        }
        if timed {
            self.timed_digest = self.timed_digest.wrapping_add(fnv1a64(text.as_bytes()));
            self.replay_digest = self.replay_digest.wrapping_add(self.cold_fnv[i]);
        }
    }
}

/// What the traced run keeps of each timed response.
struct Answer {
    from_cache: bool,
    accel: bool,
    served: bool,
    degraded: bool,
    launches: usize,
}

/// Runs the workload.
pub fn run(args: &Args) -> RunResult {
    // Cold replay, before set-up and untimed: every catalogue request
    // answered by a fresh server that caches nothing. Response bytes do not
    // depend on the worker count, so it runs on two workers and admits the
    // whole catalogue at once.
    let reference = catalogue();
    let mut cold_server = SimServer::new(ServeConfig {
        workers: 2,
        queue_capacity: reference.len(),
        ..config(0)
    });
    let cold = cold_server.serve(&reference);
    let mut check = Check::new(&cold);

    let clock = HostClock::start();
    let ((catalogue, mut server), builds) = timed_setup(&clock, 25, || {
        (catalogue(), SimServer::new(config(CACHE_CAPACITY)))
    });
    let mut stream = timed_stream(catalogue.len(), args.seed);
    let mut repeats = RepeatCounter::default();
    // Set-up counts the warm-up's serve calls, not the checking between them.
    let mut warmup = Vec::with_capacity(WARMUP);
    for i in warmup_stream(catalogue.len()).take(WARMUP) {
        let (resp, span) = clock.time(|| serve_one(&mut server, &catalogue[i]));
        warmup.push(span);
        if args.trace {
            repeats.mark_seen(catalogue[i].canonical_string());
        }
        check.response(i, &resp, false);
    }
    let before = Counts::of(&server);

    let mut tracer = Tracer::default();
    let mut op_s = Vec::new();
    let mut ops = Vec::new();
    let mut answers = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        let i = stream.next().expect("endless stream");
        let req = &catalogue[i];
        let resp = if args.trace {
            let span = tracer.open("serve.request", None);
            let (key, _) = tracer.time("serve.canonical", Some(span), || {
                let c = req.canonical_string();
                fnv1a64(c.as_bytes());
                c
            });
            let (resp, s) = tracer.time("serve.serve", Some(span), || serve_one(&mut server, req));
            repeats.step(&[key], s);
            if !resp.from_cache {
                tracer.time("kernels.inputs", Some(span), || {
                    synthetic_inputs(&req.layer, req.policy.spread(), req.policy.seed)
                });
                if req.backend == BackendKind::Accel {
                    let op = DeformConvOp {
                        method: req.kernel_family,
                        family: req.op_family,
                        ..DeformConvOp::baseline(req.layer)
                    };
                    let accel = Accel::new(
                        AccelConfig::for_serve_device(req.device.canonical_name())
                            .expect("paired accelerator"),
                    );
                    let _ = tracer.time("accel.deform_totals", Some(span), || {
                        accel.deform_totals(&op)
                    });
                }
            }
            tracer.close(span);
            answers.push(Answer {
                from_cache: resp.from_cache,
                accel: req.backend == BackendKind::Accel,
                served: resp.outcome == ServeOutcome::Served,
                degraded: resp.degraded_admission || !resp.degradations.is_empty(),
                launches: if resp.from_cache {
                    0
                } else {
                    resp.reports.len()
                },
            });
            op_s.push(s);
            resp
        } else {
            let (resp, span) = clock.time(|| serve_one(&mut server, req));
            op_s.push(span.secs);
            ops.push(span);
            resp
        };
        check.response(i, &resp, true);
    }
    let after = Counts::of(&server);
    let speed = clock.finish();

    let requests = op_s.len() as u64;
    let hits = after.hits - before.hits;
    let sim_ms = cold
        .iter()
        .flat_map(|r| &r.reports)
        .map(|k| k.time_ms)
        .sum::<f64>()
        / cold.len() as f64;
    let mut sorted = check.cold_text.clone();
    sorted.sort();
    println!(
        "serve_zipf digest {:016x}: catalogue mean {sim_ms:.4} sim ms per request (no paper reference for \
         the serving shapes); timed responses {:016x}, their cold replay {:016x}",
        fnv1a64(sorted.join("\n").as_bytes()),
        check.timed_digest,
        check.replay_digest
    );
    let setup = |secs: &dyn Fn(Timed) -> f64| {
        median(&builds.iter().map(|&b| secs(b)).collect::<Vec<_>>())
            + warmup.iter().map(|&w| secs(w)).sum::<f64>()
    };
    println!(
        "serve_zipf: {requests} timed requests, {:.1} req/s, hit rate {:.3}, {} evictions, p50 {:.4} ms, \
         set-up {:.2} s (wall)",
        requests as f64 / op_s.iter().sum::<f64>(),
        ratio(hits as f64, requests as f64),
        after.evictions - before.evictions,
        median(&op_s) * 1e3,
        setup(&|t| t.secs)
    );
    let failed = check.failed + u64::from(check.timed_digest != check.replay_digest);
    let attempted = WARMUP as u64 + requests;
    if !args.trace {
        let figures = |label: &str, metrics: &[(&'static str, f64, &'static str)]| {
            let named: Vec<(&str, f64, &str)> = ["serve_rps", "serve_p50_ms", "serve_p99_ms"]
                .into_iter()
                .zip(metrics)
                .map(|(name, &(_, v, unit))| (name, v, unit))
                .collect();
            print_figures("serve_zipf", label, &named, metrics);
        };
        figures("wall", &end_to_end(&op_s, setup(&|t| t.secs)));
        let metrics = end_to_end(&speed.adjust_all(&ops), setup(&|t| speed.adjust(t)));
        figures(&speed.label(), &metrics);
        return RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        };
    }

    // Per-layer attribution of the traced window.
    let latency_of = |pick: &dyn Fn(&Answer) -> bool, scale: f64| {
        let v: Vec<f64> = answers
            .iter()
            .zip(&op_s)
            .filter(|(a, _)| pick(a))
            .map(|(_, &s)| s * scale)
            .collect();
        median(&v)
    };
    let span_median = |name: &str, scale: f64| {
        let v: Vec<f64> = tracer
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9 * scale)
            .collect();
        median(&v)
    };
    let count = |pick: &dyn Fn(&Answer) -> bool| answers.iter().filter(|a| pick(a)).count() as f64;
    let serve_s = tracer.seconds("serve.serve");
    let overhead_pct = 100.0 * (tracer.seconds("serve.request") - serve_s) / serve_s;
    let mut classes = ClassStats::default();
    for r in cold
        .iter()
        .filter(|r| r.request.backend == BackendKind::Gpusim)
    {
        for k in &r.reports {
            classes.add_counters(k);
        }
    }
    let gpusim_ms = |m: SamplingMethod| -> f64 {
        cold.iter()
            .filter(|r| r.request.backend == BackendKind::Gpusim && r.request.kernel_family == m)
            .flat_map(|r| &r.reports)
            .map(|k| k.time_ms)
            .sum()
    };
    let mut layers = Layers::default();
    layers.set("sim.ms", sim_ms);
    layers.set(
        "sim.speedup",
        gpusim_ms(SamplingMethod::SoftwareBilinear) / gpusim_ms(SamplingMethod::Tex2dPlusPlus),
    );
    layers.set(
        "kernels.inputs_s",
        tracer.seconds("kernels.inputs") / requests as f64,
    );
    classes.fill(&mut layers);
    layers.set("serve.canonical_us", span_median("serve.canonical", 1e6));
    layers.set("serve.hit_us", latency_of(&|a| a.from_cache, 1e6));
    layers.set(
        "serve.miss_gpusim_ms",
        latency_of(&|a| !a.from_cache && !a.accel, 1e3),
    );
    layers.set(
        "serve.miss_accel_ms",
        latency_of(&|a| !a.from_cache && a.accel, 1e3),
    );
    layers.set("serve.hit_rate", ratio(hits as f64, requests as f64));
    layers.set(
        "serve.evictions_per_kreq",
        1e3 * ratio((after.evictions - before.evictions) as f64, requests as f64),
    );
    layers.set("serve.failed", count(&|a| !a.served));
    layers.set("serve.retries", (after.retries - before.retries) as f64);
    layers.set("serve.degraded", count(&|a| a.degraded));
    layers.set("accel.totals_us", span_median("accel.deform_totals", 1e6));
    layers.set("repeat_share", repeats.share());
    layers.set("repeat_host_share", repeats.host_share());
    layers.set("trace.overhead_pct", overhead_pct);
    layers.set(
        "gpusim.launches",
        answers.iter().map(|a| a.launches).sum::<usize>() as f64,
    );
    println!(
        "serve_zipf traced: {} of {} requests repeat an earlier key; tracing overhead {overhead_pct:+.2}%",
        repeats.repeats, repeats.total
    );
    match tracer.write("trace_serve_zipf.json") {
        Ok(p) => println!("serve_zipf spans written to {}", p.display()),
        Err(e) => println!("serve_zipf: could not write spans: {e}"),
    }
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.into_metrics(),
    }
}

/// Server counters sampled around the timed window.
struct Counts {
    hits: u64,
    evictions: u64,
    retries: u64,
}

impl Counts {
    fn of(server: &SimServer) -> Counts {
        Counts {
            hits: server.cache().hits(),
            evictions: server.cache().evictions(),
            retries: server.retries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_576_distinct_requests() {
        let c = catalogue();
        assert_eq!(c.len(), 576);
        let mut keys: Vec<String> = c.iter().map(SimRequest::canonical_string).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 576);
        assert!(CACHE_CAPACITY < c.len());
    }
}
