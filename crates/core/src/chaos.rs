//! Seeded chaos-soak sessions over the serving layer.
//!
//! A chaos session drives a seeded randomized request stream — shapes,
//! devices, ladder rungs, operator families, and deadline budgets all
//! drawn from one `StdRng` — through a [`SimServer`] while a seeded
//! [`FaultPlan`] arms every serving-path fault point with probabilistic
//! schedules. The session then distils everything observable into a
//! [`ChaosSummary`]: the outcome partition, the sorted response contents
//! and their digest, the (sorted) fault log, the breaker transition log,
//! and the cache/admission statistics.
//!
//! The point is the *invariants*, not any particular outcome
//! (DESIGN.md §12):
//!
//! * **None lost** — every submitted request ends as exactly one
//!   response, and every response is `served`, `shed`, or
//!   `deadline_exceeded` (never `failed`: the software floor cannot fail
//!   texture setup, and chaos plans only arm recoverable points).
//! * **Seed determinism** — the same `(seed, requests)` pair produces a
//!   byte-identical summary: response contents, fault log, breaker log.
//! * **Accounting balance** — cache `inserts == len + evictions + drops`
//!   and `hits + misses == lookups`; the outcome counts partition the
//!   request count.
//! * **Legal breaker walks** — the rendered transition log only contains
//!   edges the [`CircuitBreaker`](defcon_support::breaker::CircuitBreaker)
//!   state machine can take, and consecutive transitions of a rung chain
//!   (each edge starts where the previous one ended).
//!
//! Sessions pin `workers: 1`: the `texture.limit` fault point decides by
//! per-point *hit counter* (not a caller-stable index), so its firing
//! pattern is only deterministic when misses simulate in admission order.
//! A plan restricted to owner-thread points ([`FaultPointSet::OwnerOnly`])
//! is schedule-deterministic at any worker count, which is what the soak
//! test uses to cross-check `workers: 1` against `workers: 4`.

use crate::serve::{
    fnv1a64, RequestPolicy, ServeConfig, ServeDevice, ServeOutcome, SimRequest, SimServer,
};
use defcon_kernels::backend::BackendKind;
use defcon_kernels::op::{OpFamily, SamplingMethod};
use defcon_kernels::DeformLayerShape;
use defcon_support::fault::{self, FaultPlan, Schedule};
use defcon_support::json::Json;
use defcon_support::rng::{Rng, SeedableRng, StdRng};

/// Which fault points a session arms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPointSet {
    /// Every serving-path point, including `texture.limit` (hit-counter
    /// keyed — worker-order dependent, so only sound at `workers: 1`).
    All,
    /// Only points consulted on the owner thread in admission order
    /// (`serve.enqueue`, `serve.cache`, `serve.deadline`, `retry.attempt`,
    /// `breaker.trip`) — deterministic at any worker count.
    OwnerOnly,
}

/// One chaos session's shape.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Master seed: request stream and fault plan both derive from it.
    pub seed: u64,
    /// Requests in the session.
    pub requests: usize,
    /// Workers for miss simulation (see the module docs: only
    /// [`FaultPointSet::OwnerOnly`] is deterministic above 1).
    pub workers: usize,
    /// Admission-queue capacity (small values exercise overflow shedding
    /// alongside the injected `serve.enqueue` failures).
    pub queue_capacity: usize,
    /// Report-cache capacity (small values exercise eviction).
    pub cache_capacity: usize,
    /// Which fault points to arm.
    pub points: FaultPointSet,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            requests: 200,
            workers: 1,
            queue_capacity: 4,
            cache_capacity: 32,
            points: FaultPointSet::All,
        }
    }
}

/// Everything observable about one finished session, in deterministic
/// form (every `Vec` is either admission-ordered or sorted).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSummary {
    /// The session's [`ChaosConfig::seed`].
    pub seed: u64,
    /// Requests submitted (== responses received).
    pub requests: usize,
    /// Responses per terminal outcome, in [`ServeOutcome`] declaration
    /// order: served, shed, deadline-exceeded, failed.
    pub outcomes: [usize; 4],
    /// Sorted [`SimResponse::content_string`](crate::serve::SimResponse)
    /// set.
    pub contents: Vec<String>,
    /// FNV-1a over the newline-joined sorted contents.
    pub digest: u64,
    /// The armed plan's firing log (sorted, one `point#n` line each).
    pub fault_log: Vec<String>,
    /// The ladder breaker's rendered transition log, in event order.
    pub breaker_log: Vec<String>,
    /// Cache statistics: lookups-side (`hits`, `misses`) and
    /// entries-side (`inserts`, `len`, `evictions`, `drops`).
    pub cache: CacheStats,
    /// Admission statistics: sheds (queue refusals), terminal sheds,
    /// retries, degraded admissions.
    pub admission: AdmissionStats,
}

/// Cache accounting snapshot (see [`ChaosSummary::cache`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub len: usize,
    pub evictions: u64,
    pub drops: u64,
}

/// Admission accounting snapshot (see [`ChaosSummary::admission`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionStats {
    pub sheds: u64,
    pub terminal_sheds: u64,
    pub retries: u64,
    pub degraded_admissions: u64,
    pub deadline_exceeded: u64,
}

/// The seeded request stream for a session: tiny shapes (chaos soaks run
/// hundreds of simulations), both devices, all ladder rungs and operator
/// families, and a deadline mix from unbudgeted through impossible.
pub fn request_stream(seed: u64, n: usize) -> Vec<SimRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1011);
    let shapes = [
        DeformLayerShape::same3x3(2, 2, 8, 8),
        DeformLayerShape::same3x3(4, 4, 8, 8),
        DeformLayerShape::same3x3(4, 8, 6, 6),
        DeformLayerShape::same3x3(8, 8, 6, 6),
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
                seed: rng.gen_range(0u64..3),
                deadline_cycles: match rng.gen_range(0u32..8) {
                    // Mostly unbudgeted; the budgeted tail spans verdicts
                    // that trip at admission, mid-simulation, and never.
                    0 => 1,
                    1 => rng.gen_range(50_000u64..5_000_000),
                    2 => u64::MAX / 2,
                    _ => 0,
                },
                ..RequestPolicy::default()
            },
        })
        .collect()
}

/// The session's fault plan: every point a serving request can cross,
/// armed with seeded Bernoulli schedules aggressive enough that a
/// 200-request session exercises shedding, retry exhaustion, ladder
/// degradation, breaker trips, and forced deadline verdicts.
pub fn fault_plan(seed: u64, points: FaultPointSet) -> FaultPlan {
    let plan = FaultPlan::new(seed)
        .point("serve.enqueue", Schedule::Prob(0.20))
        .point("serve.cache", Schedule::Prob(0.10))
        .point("serve.deadline", Schedule::Prob(0.10))
        .point("retry.attempt", Schedule::Prob(0.50))
        .point("breaker.trip", Schedule::Prob(0.04));
    match points {
        FaultPointSet::OwnerOnly => plan,
        FaultPointSet::All => plan.point("texture.limit", Schedule::Prob(0.15)),
    }
}

/// Runs one session: arms the plan, serves the stream, and summarizes.
///
/// Panics if the server loses a request (fewer responses than requests)
/// — that invariant is checked here rather than left to callers because
/// a lost request would silently skew every downstream count.
pub fn run_session(cfg: &ChaosConfig) -> ChaosSummary {
    let stream = request_stream(cfg.seed, cfg.requests);
    let armed = fault::arm(fault_plan(cfg.seed, cfg.points));
    let mut server = SimServer::new(ServeConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        ..ServeConfig::default()
    });
    let responses = server.serve(&stream);
    assert_eq!(
        responses.len(),
        stream.len(),
        "chaos session lost a request"
    );
    let fault_log = fault::log();
    drop(armed);

    let mut outcomes = [0usize; 4];
    for r in &responses {
        let i = match r.outcome {
            ServeOutcome::Served => 0,
            ServeOutcome::Shed => 1,
            ServeOutcome::DeadlineExceeded => 2,
            ServeOutcome::Failed => 3,
        };
        outcomes[i] += 1;
    }
    let mut contents: Vec<String> = responses.iter().map(|r| r.content_string()).collect();
    contents.sort();
    let digest = fnv1a64(contents.join("\n").as_bytes());
    let cache = server.cache();
    ChaosSummary {
        seed: cfg.seed,
        requests: cfg.requests,
        outcomes,
        digest,
        fault_log,
        breaker_log: server.breaker().log().to_vec(),
        cache: CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            inserts: cache.inserts(),
            len: cache.len(),
            evictions: cache.evictions(),
            drops: cache.drops(),
        },
        admission: AdmissionStats {
            sheds: server.sheds(),
            terminal_sheds: server.terminal_sheds(),
            retries: server.retries(),
            degraded_admissions: server.degraded_admissions(),
            deadline_exceeded: server.deadline_exceeded(),
        },
        contents,
    }
}

impl ChaosSummary {
    /// The summary as canonical JSON — what `repro_chaos` writes, and
    /// what CI `cmp`s across two runs of the same seed.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::str(format!("{:016x}", self.seed))),
            ("requests", Json::from(self.requests)),
            ("served", Json::from(self.outcomes[0])),
            ("shed", Json::from(self.outcomes[1])),
            ("deadline_exceeded", Json::from(self.outcomes[2])),
            ("failed", Json::from(self.outcomes[3])),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            (
                "fault_log",
                Json::Arr(self.fault_log.iter().map(Json::str).collect()),
            ),
            (
                "breaker_log",
                Json::Arr(self.breaker_log.iter().map(Json::str).collect()),
            ),
            ("cache_hits", Json::from(self.cache.hits)),
            ("cache_misses", Json::from(self.cache.misses)),
            ("cache_inserts", Json::from(self.cache.inserts)),
            ("cache_len", Json::from(self.cache.len)),
            ("cache_evictions", Json::from(self.cache.evictions)),
            ("cache_drops", Json::from(self.cache.drops)),
            ("sheds", Json::from(self.admission.sheds)),
            ("terminal_sheds", Json::from(self.admission.terminal_sheds)),
            ("retries", Json::from(self.admission.retries)),
            (
                "degraded_admissions",
                Json::from(self.admission.degraded_admissions),
            ),
            (
                "deadline_exceeded_count",
                Json::from(self.admission.deadline_exceeded),
            ),
        ])
    }

    /// Checks every per-session invariant (see the module docs), panicking
    /// with a labelled message on the first violation.
    pub fn assert_invariants(&self) {
        let total: usize = self.outcomes.iter().sum();
        assert_eq!(
            total, self.requests,
            "outcomes must partition the request count"
        );
        assert_eq!(
            self.outcomes[3], 0,
            "no request may terminate Failed under a recoverable plan"
        );
        assert_eq!(self.contents.len(), self.requests, "none lost");
        assert_eq!(
            self.cache.inserts,
            self.cache.len as u64 + self.cache.evictions + self.cache.drops,
            "cache entries must balance: inserts == len + evictions + drops"
        );
        assert_breaker_log_legal(&self.breaker_log);
    }
}

/// Asserts every line of a rendered breaker transition log is a legal
/// state-machine edge and that each rung's edges chain (every transition
/// starts in the state the previous one ended in).
pub fn assert_breaker_log_legal(log: &[String]) {
    // rung name → current state (every rung starts closed).
    let mut state: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    // The recordable edges of `defcon_support::breaker::step` (self-loops
    // are never logged; closed->open is only reachable via a synthesized
    // or injected trip).
    const LEGAL: [(&str, &str, &str); 5] = [
        ("closed", "open", "trip"),
        ("open", "half-open", "cooldown"),
        ("half-open", "closed", "success"),
        ("half-open", "open", "failure"),
        ("half-open", "open", "trip"),
    ];
    for line in log {
        // "tex2D:closed->open:trip"
        let (rung, edge) = line.split_once(':').expect("rung-prefixed edge");
        let (from_to, cause) = edge.rsplit_once(':').expect("cause-suffixed edge");
        let (from, to) = from_to.split_once("->").expect("from->to edge");
        assert!(
            LEGAL.contains(&(from, to, cause)),
            "illegal breaker edge: {line}"
        );
        let cur = state.entry(rung).or_insert("closed");
        assert_eq!(
            *cur, from,
            "breaker edge does not chain from the previous state: {line}"
        );
        *cur = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seed_deterministic_and_mixed() {
        let a = request_stream(9, 64);
        assert_eq!(a, request_stream(9, 64));
        assert_ne!(a, request_stream(10, 64));
        assert!(a.iter().any(|r| r.policy.deadline_cycles == 0));
        assert!(a.iter().any(|r| r.policy.deadline_cycles == 1));
        assert!(a
            .iter()
            .any(|r| r.kernel_family != SamplingMethod::SoftwareBilinear));
    }

    #[test]
    fn breaker_log_checker_accepts_legal_and_rejects_illegal() {
        assert_breaker_log_legal(&[
            "tex2D:closed->open:trip".into(),
            "tex2D++:closed->open:trip".into(),
            "tex2D:open->half-open:cooldown".into(),
            "tex2D:half-open->closed:success".into(),
            "tex2D++:open->half-open:cooldown".into(),
            "tex2D++:half-open->open:failure".into(),
        ]);
        let illegal = std::panic::catch_unwind(|| {
            assert_breaker_log_legal(&["tex2D:closed->half-open:trip".into()])
        });
        assert!(illegal.is_err());
        let broken_chain = std::panic::catch_unwind(|| {
            assert_breaker_log_legal(&["tex2D:open->half-open:cooldown".into()])
        });
        assert!(broken_chain.is_err());
    }

    #[test]
    fn tiny_session_holds_its_invariants() {
        let cfg = ChaosConfig {
            seed: 0xA11CE,
            requests: 24,
            ..ChaosConfig::default()
        };
        let s = run_session(&cfg);
        s.assert_invariants();
        assert_eq!(s, run_session(&cfg), "same seed, same summary");
    }
}
