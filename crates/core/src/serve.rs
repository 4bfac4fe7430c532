//! Throughput-mode simulation serving (ROADMAP open item 1).
//!
//! Every other entry point in this workspace is a one-shot repro binary;
//! this module is the long-running counterpart: a [`SimServer`] accepts
//! [`SimRequest`]s through a bounded admission queue, fans batches across
//! `support::par` workers over shared-immutable [`DeviceConfig`] / LUT
//! state, and consults a **content-addressed launch-report cache** before
//! simulating anything.
//!
//! ## Cache-correctness argument
//!
//! The cache key is the FNV-1a 64 hash of [`SimRequest::canonical_string`]
//! — a canonical JSON rendering with a pinned field order, integer-only
//! policy fields, and the seed spelled as a hex string (so no value is
//! ever squeezed through an `f64`). Canonicalization is **total** (every
//! request renders) and **injective** (distinct requests render
//! differently, since every request field appears verbatim); both
//! properties are enforced by property tests. A lookup only counts as a
//! hit when the stored canonical string matches byte-for-byte, so even a
//! 64-bit hash collision cannot alias two requests. The cache is
//! `defcon_gpusim::ReportCache`, the workspace's one content-addressed
//! cache, which the engine's per-network launch memo uses too.
//!
//! A hit is byte-identical to a fresh simulation because a launch is one
//! serial walk of its blocks (the `defcon_gpusim` engine docs), so a
//! report is a pure function of the canonicalized request — which is
//! exactly what the key hashes. Cache reads and writes happen only on the
//! owner thread (phases A and C of [`SimServer::drain`]); workers only
//! simulate, and their answers come back in miss order. Eviction
//! and worker count therefore change *when* a simulation runs, never what
//! bytes come back — the differential serving suite
//! (`tests/serving_equivalence.rs`) checks this at 1 vs 4 workers and
//! cold vs warm cache.
//!
//! ## Overload behaviour
//!
//! When the queue is full (or the `serve.enqueue` fault point fires),
//! [`SimServer::submit`] sheds the request with a typed
//! [`DefconError::Overloaded`]. The batch driver [`SimServer::serve`]
//! responds with a **deterministic retry loop** ([`RetryPolicy`], default
//! one retry — the original drain-and-retry behaviour): drain the backlog,
//! charge a seeded exponential backoff *in virtual cycles* against the
//! request's deadline budget, and re-attempt admission (the
//! `retry.attempt` fault point fails an attempt outright). When retries
//! are exhausted, the request is degraded one rung down the paper's
//! `tex2D++ → tex2D → software` ladder ([`SamplingMethod::degrade`]) and
//! served inline; a request already at the software floor is **terminally
//! shed** — it still gets a response, carrying the `Overloaded` error.
//! Every request thus ends in exactly one of three outcomes: served, shed,
//! or deadline-exceeded ([`ServeOutcome`]) — never silently dropped. The
//! `serve.cache` fault point models a corrupt cache entry: the entry is
//! dropped and the request re-simulated, which re-derives identical bytes.
//!
//! ## Deadline budgets (virtual time)
//!
//! A request may carry a deadline in **virtual cycles**
//! ([`RequestPolicy::deadline_cycles`], or the server-wide
//! `DEFCON_SERVE_DEADLINE` default). Enforcement never reads a wall
//! clock, so verdicts are byte-reproducible: retry backoffs are charged
//! against the budget up front, a LUT-backed preflight rejects requests
//! whose tabulated cost already exceeds what remains (uniformly, *before*
//! the cache is consulted, so temperature cannot change the verdict), and
//! every answer that comes back with reports — a cache hit, a gpusim miss
//! or an accel miss — is judged by one walk over them: each launch is
//! charged `ceil(cycles)`, and the first launch whose running sum passes
//! the remainder fails the request. The walk reads only the
//! (deterministic) reports, so a hit and the miss that filled it get the
//! same verdict. Exceeded requests are never cached. The `serve.deadline`
//! fault point forces the verdict at admission.
//!
//! ## Circuit breaker over the kernel ladder
//!
//! [`SimServer::serve`] consults a per-rung circuit breaker
//! ([`LadderBreaker`]) over the two texture rungs at admission: a rung
//! whose breaker refuses is skipped *before* canonicalization, so the
//! request is planned down the ladder without burning a simulation on a
//! rung that keeps failing. Outcomes feed back in response order — each
//! response's recorded ladder degradations mark the failed rungs, the
//! served method marks a success — so breaker evolution is a pure
//! function of the response stream (cached and fresh responses carry
//! identical degradation lists), invariant to worker count and cache
//! temperature. The software floor is exempt: it cannot fail texture
//! setup, so there is always a rung to land on. The `breaker.trip` fault
//! point force-opens the requested rung at admission.

use std::time::Instant;

use defcon_accel::{Accel, AccelConfig};
use defcon_gpusim::{DeviceConfig, Gpu, KernelReport, ReportCache, SamplePolicy};
use defcon_kernels::backend::BackendKind;
use defcon_kernels::op::{
    synthetic_offsets, DeformConvOp, DeformFallback, OpFamily, SamplingMethod,
};
use defcon_kernels::DeformLayerShape;
use defcon_support::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use defcon_support::error::DefconError;
use defcon_support::json::{Json, ToJson};
use defcon_support::retry::RetryPolicy;
use defcon_support::{env, fault, obs, par};

use crate::lut::{LatencyKey, LatencyLut};

/// The content-address function for cache keys and report digests.
pub use defcon_support::rng::fnv1a64;

/// A simulated device a request can target, addressed by canonical name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeDevice {
    /// The Jetson AGX Xavier preset (`"xavier-agx"`).
    XavierAgx,
    /// The RTX 2080 Ti preset (`"rtx2080ti"`).
    Rtx2080Ti,
}

impl ServeDevice {
    /// The name used in canonical request JSON and cache keys.
    pub fn canonical_name(&self) -> &'static str {
        match self {
            ServeDevice::XavierAgx => "xavier-agx",
            ServeDevice::Rtx2080Ti => "rtx2080ti",
        }
    }

    /// Resolves a canonical name back to a device.
    pub fn from_name(name: &str) -> Option<ServeDevice> {
        ServeDevice::all()
            .into_iter()
            .find(|d| d.canonical_name() == name)
    }

    /// The device preset this request target resolves to.
    pub fn config(&self) -> DeviceConfig {
        DeviceConfig::preset(self.canonical_name())
            .expect("every ServeDevice name is a DeviceConfig preset")
    }

    /// Every servable device.
    pub fn all() -> [ServeDevice; 2] {
        [ServeDevice::XavierAgx, ServeDevice::Rtx2080Ti]
    }
}

/// Per-request simulation policy. Integer-only on purpose: every field
/// lands in the canonical JSON, and floats would make canonicalization
/// rendering-sensitive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestPolicy {
    /// Block-sampling budget for the engine (see [`SamplePolicy`]).
    pub max_blocks: usize,
    /// Seed for the synthetic input/offset tensors.
    pub seed: u64,
    /// Offset spread in milli-pixels (4000 = the paper's ±4.0 px).
    pub spread_milli: u32,
    /// Per-request deadline budget in **virtual cycles**; 0 (the default)
    /// means no per-request deadline (the server default, if any,
    /// applies). Omitted from the canonical form when 0 so pre-deadline
    /// requests keep their content addresses.
    pub deadline_cycles: u64,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        RequestPolicy {
            max_blocks: 96,
            seed: 2024,
            spread_milli: 4000,
            deadline_cycles: 0,
        }
    }
}

impl RequestPolicy {
    /// The offset spread in pixels.
    pub fn spread(&self) -> f32 {
        self.spread_milli as f32 / 1000.0
    }
}

/// One unit of serving work: simulate `kernel_family` for `layer` on
/// `device` under `policy`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRequest {
    /// Target device preset.
    pub device: ServeDevice,
    /// The deformable layer to simulate.
    pub layer: DeformLayerShape,
    /// Which sampling kernel family to run.
    pub kernel_family: SamplingMethod,
    /// Which deformable operator generation to simulate (v1/v2/v3).
    pub op_family: OpFamily,
    /// Which execution backend times the request. The default
    /// [`BackendKind::Gpusim`] is omitted from the canonical form, so
    /// every pre-backend request keeps its content address.
    pub backend: BackendKind,
    /// Simulation policy knobs.
    pub policy: RequestPolicy,
}

impl SimRequest {
    /// The canonical JSON form: pinned field order, integer-only values,
    /// the seed as a hex string. This is the *content* the cache
    /// addresses — two requests are the same job iff their canonical
    /// forms are byte-identical.
    ///
    /// The `op_family` field is emitted **only** for v2/v3 (right after
    /// `kernel_family`): every pre-family request — always implicitly
    /// v1 — renders to exactly the bytes it rendered to before the field
    /// existed, so persisted digests and pinned FNV vectors survive the
    /// format extension. `deadline_cycles` follows the same discipline:
    /// emitted (last in the policy object) only when non-zero, so every
    /// deadline-free request renders to its pre-deadline bytes. And
    /// `backend` likewise: emitted (after the family fields, before
    /// `policy`) only when it is not the default `gpusim` substrate.
    pub fn canonical(&self) -> Json {
        let l = &self.layer;
        let mut fields = vec![
            ("v", Json::from(1u64)),
            ("device", Json::str(self.device.canonical_name())),
            (
                "layer",
                Json::obj(vec![
                    ("n", Json::from(l.n)),
                    ("c_in", Json::from(l.c_in)),
                    ("c_out", Json::from(l.c_out)),
                    ("h", Json::from(l.h)),
                    ("w", Json::from(l.w)),
                    ("kernel", Json::from(l.kernel)),
                    ("stride", Json::from(l.stride)),
                    ("pad", Json::from(l.pad)),
                    ("deform_groups", Json::from(l.deform_groups)),
                ]),
            ),
            ("kernel_family", Json::str(self.kernel_family.name())),
        ];
        if self.op_family != OpFamily::DcnV1 {
            fields.push(("op_family", Json::str(self.op_family.name())));
        }
        if self.backend != BackendKind::Gpusim {
            fields.push(("backend", Json::str(self.backend.name())));
        }
        let mut policy = vec![
            ("max_blocks", Json::from(self.policy.max_blocks)),
            ("seed", Json::str(format!("{:016x}", self.policy.seed))),
            ("spread_milli", Json::from(self.policy.spread_milli as u64)),
        ];
        if self.policy.deadline_cycles != 0 {
            policy.push((
                "deadline_cycles",
                Json::str(format!("{:016x}", self.policy.deadline_cycles)),
            ));
        }
        fields.push(("policy", Json::obj(policy)));
        Json::obj(fields)
    }

    /// [`SimRequest::canonical`] rendered to bytes.
    pub fn canonical_string(&self) -> String {
        self.canonical().to_string()
    }

    /// The content-address of this request.
    pub fn cache_key(&self) -> u64 {
        fnv1a64(self.canonical_string().as_bytes())
    }

    /// The same request one rung down the fallback ladder, or `None` at
    /// the software floor. Used as the overload degradation response.
    pub fn degraded(&self) -> Option<SimRequest> {
        self.kernel_family
            .degrade()
            .map(|kernel_family| SimRequest {
                kernel_family,
                ..self.clone()
            })
    }
}

/// Server sizing and robustness tuning. The sizing knobs and the
/// retry/deadline knobs have env overrides (see
/// [`ServeConfig::with_env_overrides`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Workers for miss simulation. Worker count never changes response
    /// bytes: each miss is simulated whole, on the serial engine, by one
    /// worker.
    pub workers: usize,
    /// Admission-queue capacity; a full queue sheds with
    /// [`DefconError::Overloaded`].
    pub queue_capacity: usize,
    /// Report-cache capacity in entries.
    pub cache_capacity: usize,
    /// Admission retry schedule. The default (`max_retries = 1`)
    /// reproduces the original drain-and-retry-once behaviour.
    pub retry: RetryPolicy,
    /// Server-wide deadline budget in virtual cycles applied to requests
    /// that do not carry their own; 0 = no default deadline.
    pub default_deadline_cycles: u64,
    /// Tuning for the per-rung ladder breakers.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: defcon_gpusim::default_threads(),
            queue_capacity: 64,
            cache_capacity: 256,
            retry: RetryPolicy::default(),
            default_deadline_cycles: 0,
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Applies `DEFCON_SERVE_QUEUE` / `DEFCON_SERVE_CACHE` /
    /// `DEFCON_RETRY_MAX` / `DEFCON_SERVE_DEADLINE` overrides on top of
    /// `self`. (`workers` already follows `DEFCON_THREADS` through
    /// [`defcon_gpusim::default_threads`] in [`ServeConfig::default`].)
    pub fn with_env_overrides(mut self) -> Result<Self, DefconError> {
        if let Some(q) = env::positive_usize(env::SERVE_QUEUE)? {
            self.queue_capacity = q;
        }
        if let Some(c) = env::positive_usize(env::SERVE_CACHE)? {
            self.cache_capacity = c;
        }
        if let Some(r) = env::u64_value(env::RETRY_MAX)? {
            self.retry.max_retries = r.min(u32::MAX as u64) as u32;
        }
        if let Some(d) = env::u64_value(env::SERVE_DEADLINE)? {
            self.default_deadline_cycles = d;
        }
        Ok(self)
    }
}

/// The terminal state of a request: every request the server accepts a
/// reference to ends in exactly one of these (the chaos soak's
/// none-lost invariant partitions a session's responses over them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeOutcome {
    /// Answered with reports (possibly degraded, possibly from cache).
    Served,
    /// Admission failed at the software floor after all retries; the
    /// response carries the final `Overloaded` error and no reports.
    Shed,
    /// The virtual-time deadline verdict fired (at admission, preflight,
    /// backoff, or on the answer's launches); the response carries the
    /// `DeadlineExceeded` rendering and no reports.
    DeadlineExceeded,
    /// The simulation itself failed with a non-deadline error. The chaos
    /// soak asserts this never happens (the software floor always runs).
    Failed,
}

impl ServeOutcome {
    /// Display name, used in summaries and obs events.
    pub fn name(&self) -> &'static str {
        match self {
            ServeOutcome::Served => "served",
            ServeOutcome::Shed => "shed",
            ServeOutcome::DeadlineExceeded => "deadline_exceeded",
            ServeOutcome::Failed => "failed",
        }
    }
}

/// One served request: the reports that answered it plus provenance
/// (cache hit? degraded at admission? which rung actually ran?).
#[derive(Clone, Debug)]
pub struct SimResponse {
    /// The request as served (post-degradation if admission degraded it).
    pub request: SimRequest,
    /// Content-address of `request`.
    pub key: u64,
    /// Per-launch reports from the simulation (or the cache).
    pub reports: Vec<KernelReport>,
    /// The sampling method that actually ran (fallback ladder may have
    /// stepped down from `request.kernel_family`).
    pub method: SamplingMethod,
    /// One line per fallback-ladder rung skipped inside the simulation.
    pub degradations: Vec<String>,
    /// True when answered from the report cache.
    pub from_cache: bool,
    /// True when admission control degraded this request before serving.
    pub degraded_admission: bool,
    /// Wall-clock time to answer (cache lookup or simulation). Excluded
    /// from [`SimResponse::content_json`] — timing is not content.
    pub latency_ns: u64,
    /// `deform − regular` latency from the server's LUT, when attached
    /// and the layer is tabulated.
    pub dcn_overhead_ms: Option<f64>,
    /// Simulation failure rendering, when the request could not be
    /// served (reports empty in that case).
    pub error: Option<String>,
    /// The request's terminal state. Like `from_cache`, provenance —
    /// excluded from [`SimResponse::content_json`] (the `error` field
    /// already carries the distinguishing content).
    pub outcome: ServeOutcome,
}

impl SimResponse {
    /// The response *content* — everything that must be byte-identical
    /// across worker counts and cache temperatures. Deliberately excludes
    /// `from_cache`, `degraded_admission`, and `latency_ns`, which
    /// describe *how* the answer was produced, not the answer.
    pub fn content_json(&self) -> Json {
        Json::obj(vec![
            ("request", self.request.canonical()),
            ("key", Json::str(format!("{:016x}", self.key))),
            ("method", Json::str(self.method.name())),
            (
                "degradations",
                Json::Arr(self.degradations.iter().map(Json::str).collect()),
            ),
            (
                "dcn_overhead_ms",
                self.dcn_overhead_ms.map_or(Json::Null, Json::from),
            ),
            ("error", self.error.as_deref().map_or(Json::Null, Json::str)),
            (
                "reports",
                Json::Arr(self.reports.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    /// [`SimResponse::content_json`] rendered to bytes.
    pub fn content_string(&self) -> String {
        self.content_json().to_string()
    }
}

/// How phase A resolved a request, on the owner thread and before any
/// simulation.
enum Plan {
    /// The deadline verdict fired (injected fault or LUT preflight)
    /// before the cache was consulted.
    Deadline(DefconError),
    /// Answered by the cache; `latency_ns` is the lookup's wall time.
    Hit {
        served: DeformFallback,
        latency_ns: u64,
    },
    Miss,
}

/// A request after phase A: its content address, the deadline budget it
/// has left, and how it resolved.
struct Admitted {
    key: u64,
    canonical: String,
    remaining: Option<u64>,
    plan: Plan,
}

/// What answers one request — the reports, method and ladder
/// degradations of the rung that ran, or the error that ended it — and
/// the wall time it took (lookup or simulation).
struct Answer {
    result: Result<DeformFallback, DefconError>,
    latency_ns: u64,
}

impl Answer {
    /// A verdict reached without simulating or consulting the cache.
    fn failed(e: DefconError) -> Self {
        Answer {
            result: Err(e),
            latency_ns: 0,
        }
    }
}

fn simulate_request(req: &SimRequest, device: &DeviceConfig) -> Answer {
    let t0 = Instant::now();
    // A malformed layer is a typed, uncached failure, checked before the
    // synthetic inputs are shaped from it.
    if let Err(e) = req.layer.validate() {
        return Answer::failed(e);
    }
    // One serial engine per miss: the miss is already one item of the
    // drain's worker map, so it fans nothing out further.
    let gpu = Gpu::with_policy(
        device.clone(),
        SamplePolicy {
            max_blocks: req.policy.max_blocks,
            threads: 1,
        },
    );
    // The trace reads offsets alone, so a miss builds no input tensor.
    let offsets = synthetic_offsets(&req.layer, req.policy.spread(), req.policy.seed);
    // `modulation: None` — the trace is keyed on the family alone, never
    // on modulation *values*, so a served v2/v3 request needs no tensor;
    // the kernels still emit the family's mask/logit loads and arithmetic.
    let op = DeformConvOp {
        method: req.kernel_family,
        family: req.op_family,
        ..DeformConvOp::baseline(req.layer)
    };
    let result = match req.backend {
        BackendKind::Gpusim => op.simulate_deform_with_fallback(&gpu, &offsets),
        BackendKind::Accel => {
            // Each serving device pairs with its deployment-class
            // accelerator model; the gpusim ladder remains the fallback
            // when the accel declines (buffers, armed accel.tile fault).
            let accel = Accel::new(
                AccelConfig::for_serve_device(req.device.canonical_name())
                    .expect("every ServeDevice has a paired accelerator"),
            );
            defcon_accel::launch_with_gpu_fallback(&accel, &gpu, &op, &offsets)
        }
    };
    Answer {
        result,
        latency_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// The deadline verdict on an answer's per-launch reports: charges each
/// launch [`charge_units`] of its cycles and returns the error of the
/// first launch whose running sum passes `remaining`. It reads nothing but
/// the reports, so a cache hit and the miss that filled it get the same
/// verdict, byte for byte.
fn deadline_verdict(remaining: u64, reports: &[KernelReport]) -> Option<DefconError> {
    let mut acc = 0u64;
    for r in reports {
        acc = acc.saturating_add(charge_units(r.cycles));
        if acc > remaining {
            return Some(DefconError::DeadlineExceeded {
                what: format!("launch {}", r.kernel),
                budget_cycles: remaining,
            });
        }
    }
    None
}

/// The integer charge for `cycles` simulated cycles: `ceil`, saturated to
/// `[0, u64::MAX]` by the cast, so a running sum has no float rounding to
/// depend on.
fn charge_units(cycles: f64) -> u64 {
    cycles.ceil() as u64
}

/// Per-rung circuit breakers over the texture rungs of the fallback
/// ladder. The software floor is deliberately unguarded — it cannot fail
/// texture setup, so admission always has a rung to land on.
pub struct LadderBreaker {
    tex2dpp: CircuitBreaker,
    tex2d: CircuitBreaker,
    /// Rendered transition log across both rungs, in the order the
    /// transitions happened (lines like `"tex2D:closed->open:trip"`).
    log: Vec<String>,
    drained: [usize; 2],
}

impl LadderBreaker {
    fn new(cfg: BreakerConfig) -> Self {
        LadderBreaker {
            tex2dpp: CircuitBreaker::new(cfg),
            tex2d: CircuitBreaker::new(cfg),
            log: Vec::new(),
            drained: [0; 2],
        }
    }

    fn rung_mut(&mut self, method: SamplingMethod) -> Option<&mut CircuitBreaker> {
        match method {
            SamplingMethod::Tex2dPlusPlus => Some(&mut self.tex2dpp),
            SamplingMethod::Tex2d => Some(&mut self.tex2d),
            SamplingMethod::SoftwareBilinear => None,
        }
    }

    /// Current state of a rung's breaker (the software floor reads as
    /// permanently closed).
    pub fn state(&self, method: SamplingMethod) -> BreakerState {
        match method {
            SamplingMethod::Tex2dPlusPlus => self.tex2dpp.state(),
            SamplingMethod::Tex2d => self.tex2d.state(),
            SamplingMethod::SoftwareBilinear => BreakerState::Closed,
        }
    }

    /// Plans a request's entry rung: starting at `requested`, consults
    /// each guarded rung's breaker (burning one cooldown tick when open)
    /// and steps down past refusals. Always terminates — the software
    /// floor allows unconditionally.
    fn plan(&mut self, requested: SamplingMethod) -> SamplingMethod {
        let mut method = requested;
        loop {
            match self.rung_mut(method) {
                None => return method,
                Some(b) => {
                    if b.allow() {
                        return method;
                    }
                    method = method
                        .degrade()
                        .expect("guarded rungs always have a lower rung");
                }
            }
        }
    }

    /// Feeds one response's outcome back: the rungs the ladder recorded
    /// as degraded (walking down from the admitted family) each count a
    /// failure; the rung that served counts a success.
    fn note_outcome(&mut self, admitted: SamplingMethod, failed_rungs: usize) {
        let mut method = admitted;
        for _ in 0..failed_rungs {
            if let Some(b) = self.rung_mut(method) {
                b.record_failure();
            }
            match method.degrade() {
                Some(next) => method = next,
                None => return,
            }
        }
        if let Some(b) = self.rung_mut(method) {
            b.record_success();
        }
    }

    /// Appends freshly-recorded transitions (since the last sync) to the
    /// combined log, emitting one obs event per transition and refreshing
    /// the per-rung state gauges.
    fn sync_obs(&mut self) {
        for (i, rung) in [SamplingMethod::Tex2dPlusPlus, SamplingMethod::Tex2d]
            .into_iter()
            .enumerate()
        {
            let b = match rung {
                SamplingMethod::Tex2dPlusPlus => &self.tex2dpp,
                _ => &self.tex2d,
            };
            let fresh: Vec<String> = b.transitions()[self.drained[i]..]
                .iter()
                .map(|t| format!("{}:{}", rung.name(), t.render()))
                .collect();
            self.drained[i] = b.transitions().len();
            for line in fresh {
                obs::event_with("serve.breaker.transition", || {
                    vec![("rung", Json::str(rung.name())), ("edge", Json::str(&line))]
                });
                self.log.push(line);
            }
            obs::gauge_set(
                match rung {
                    SamplingMethod::Tex2dPlusPlus => "serve.breaker.tex2dpp",
                    _ => "serve.breaker.tex2d",
                },
                b.state().gauge(),
            );
        }
    }

    /// The combined rendered transition log, in event order.
    pub fn log(&self) -> &[String] {
        &self.log
    }
}

/// The throughput-mode simulation service. See the module docs for the
/// correctness argument; see `repro_serving` for a driveable session.
pub struct SimServer {
    cfg: ServeConfig,
    /// Shared-immutable device state, resolved once at construction.
    devices: Vec<(ServeDevice, DeviceConfig)>,
    lut: Option<LatencyLut>,
    /// Queued requests, each with the virtual backoff cycles its
    /// admission retries already charged against its deadline budget.
    queue: Vec<(SimRequest, u64)>,
    cache: ReportCache<DeformFallback>,
    breaker: LadderBreaker,
    sheds: u64,
    served: u64,
    degraded_admissions: u64,
    terminal_sheds: u64,
    deadline_exceeded: u64,
    retries: u64,
}

impl SimServer {
    /// A server with an empty queue and a cold cache.
    pub fn new(cfg: ServeConfig) -> Self {
        let devices = ServeDevice::all()
            .into_iter()
            .map(|d| (d, d.config()))
            .collect();
        SimServer {
            cache: ReportCache::new(cfg.cache_capacity).with_fault_point("serve.cache"),
            breaker: LadderBreaker::new(cfg.breaker),
            cfg,
            devices,
            lut: None,
            queue: Vec::new(),
            sheds: 0,
            served: 0,
            degraded_admissions: 0,
            terminal_sheds: 0,
            deadline_exceeded: 0,
            retries: 0,
        }
    }

    /// Attaches a latency LUT; responses for tabulated layers then carry
    /// `dcn_overhead_ms`. The LUT is shared-immutable serving state.
    pub fn with_lut(mut self, lut: LatencyLut) -> Self {
        self.lut = Some(lut);
        self
    }

    fn device_config(&self, device: ServeDevice) -> &DeviceConfig {
        self.devices
            .iter()
            .find(|(d, _)| *d == device)
            .map(|(_, cfg)| cfg)
            .expect("SimServer::new resolves every ServeDevice")
    }

    /// Admits one request into the bounded queue. A full queue — or a
    /// firing `serve.enqueue` fault — sheds the request with a typed
    /// [`DefconError::Overloaded`]; nothing is partially admitted.
    pub fn submit(&mut self, req: SimRequest) -> Result<(), DefconError> {
        self.submit_with(req, 0)
    }

    /// [`SimServer::submit`] carrying the virtual backoff cycles already
    /// charged against the request's deadline by admission retries.
    fn submit_with(&mut self, req: SimRequest, backoff_cycles: u64) -> Result<(), DefconError> {
        let depth = self.queue.len();
        // Short-circuit: the fault point is only consulted for requests
        // the queue could actually hold, so `fault::log()` indices stay
        // deterministic under overflow.
        if depth >= self.cfg.queue_capacity || fault::fires("serve.enqueue") {
            self.sheds += 1;
            obs::event_with("serve.shed", || {
                vec![
                    ("depth", Json::from(depth)),
                    ("capacity", Json::from(self.cfg.queue_capacity)),
                ]
            });
            return Err(DefconError::Overloaded {
                what: "serve queue".to_string(),
                queue_depth: depth,
                capacity: self.cfg.queue_capacity,
            });
        }
        self.queue.push((req, backoff_cycles));
        obs::gauge_set("serve.queue_depth", self.queue.len() as f64);
        Ok(())
    }

    /// The deadline governing `req`: its own, else the server default;
    /// 0 = none.
    fn effective_deadline(&self, req: &SimRequest) -> u64 {
        if req.policy.deadline_cycles != 0 {
            req.policy.deadline_cycles
        } else {
            self.cfg.default_deadline_cycles
        }
    }

    /// The virtual cycles still available to `req` after `backoff_cycles`
    /// of admission backoff, or `None` when no deadline governs it.
    fn remaining_for(&self, req: &SimRequest, backoff_cycles: u64) -> Option<u64> {
        let d = self.effective_deadline(req);
        (d != 0).then(|| d.saturating_sub(backoff_cycles))
    }

    /// Phase-A deadline gate, run (owner thread, admission order) for
    /// every deadline-carrying request **before** the cache is consulted,
    /// so cache temperature cannot change the verdict. Returns the fatal
    /// error when the `serve.deadline` fault fires or the LUT preflight
    /// says the tabulated cost already exceeds the remaining budget.
    fn deadline_gate(&self, req: &SimRequest, remaining: u64) -> Option<DefconError> {
        if fault::fires("serve.deadline") {
            return Some(DefconError::DeadlineExceeded {
                what: "serve admission".to_string(),
                budget_cycles: remaining,
            });
        }
        // LUT preflight: the tabulated deform latency (when this layer is
        // tabulated) converted to virtual cycles on the target device. An
        // estimate — the table was built under its own policy — used only
        // to fast-reject requests that cannot plausibly fit.
        let lut = self.lut.as_ref()?;
        let entry = lut.get(&LatencyKey::of(&req.layer))?;
        let cfg = self.device_config(req.device);
        let est_cycles = entry.deform_ms * cfg.core_clock_ghz * 1e6;
        (charge_units(est_cycles) > remaining).then(|| DefconError::DeadlineExceeded {
            what: "serve preflight".to_string(),
            budget_cycles: remaining,
        })
    }

    /// Serves everything queued and returns responses in submission
    /// order. Three phases keep the result deterministic: (A) deadline
    /// gate and cache consultation on the owner thread in request order,
    /// (B) miss simulation mapped across workers, results in miss order,
    /// (C) settlement — the deadline walk over every answer, cache
    /// insertion, and breaker feedback — back on the owner thread in
    /// request order.
    pub fn drain(&mut self) -> Vec<SimResponse> {
        let batch = std::mem::take(&mut self.queue);
        if batch.is_empty() {
            return Vec::new();
        }
        // The span carries no worker count: while obs is armed the misses
        // run inline, so the trace is the same bytes at every count.
        let drain_span = obs::span_with("serve.drain", || vec![("depth", Json::from(batch.len()))]);

        // Phase A — deadline-gate and content-address each request, then
        // consult the cache.
        let admitted: Vec<Admitted> = batch
            .iter()
            .map(|(req, backoff)| self.admit(req, *backoff))
            .collect();
        let jobs: Vec<usize> = (0..batch.len())
            .filter(|&i| matches!(admitted[i].plan, Plan::Miss))
            .collect();

        // Phase B — simulate the misses. Workers read shared-immutable
        // device state; answers come back in miss order.
        let answers = par::map(&jobs, self.cfg.workers, |&j| {
            let (req, _) = &batch[j];
            simulate_request(req, self.device_config(req.device))
        });

        // Phase C — settle each request, in order.
        let mut out = Vec::with_capacity(batch.len());
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut answers = answers.into_iter();
        for (i, ((req, _), admitted)) in batch.into_iter().zip(admitted).enumerate() {
            let sim = match admitted.plan {
                Plan::Deadline(_) => None,
                Plan::Hit { .. } => {
                    hits += 1;
                    None
                }
                Plan::Miss => {
                    misses += 1;
                    answers.next()
                }
            };
            let remaining = admitted.remaining;
            let response = self.settle(req, admitted, sim, false);
            let request_span = obs::span_with("serve.request", || {
                vec![
                    ("index", Json::from(i)),
                    (
                        "device",
                        Json::str(response.request.device.canonical_name()),
                    ),
                    (
                        "kernel_family",
                        Json::str(response.request.kernel_family.name()),
                    ),
                    ("key", Json::str(format!("{:016x}", response.key))),
                ]
            });
            request_span.record("from_cache", Json::Bool(response.from_cache));
            request_span.record("reports", Json::from(response.reports.len()));
            drop(request_span);
            if response.outcome == ServeOutcome::DeadlineExceeded {
                obs::event_with("serve.deadline", || {
                    vec![
                        ("index", Json::from(i)),
                        ("budget", Json::from(remaining.unwrap_or(0))),
                    ]
                });
            }
            out.push(response);
        }
        self.breaker.sync_obs();
        obs::counter_add("serve.requests", out.len() as u64);
        obs::counter_add("serve.cache_hits", hits);
        obs::counter_add("serve.cache_misses", misses);
        obs::gauge_set("serve.queue_depth", 0.0);
        obs::gauge_set("serve.hit_rate", self.cache.hit_rate());
        drain_span.record("hits", Json::from(hits));
        drain_span.record("misses", Json::from(misses));
        drop(drain_span);
        out
    }

    /// Serves one degraded admission on the owner thread, bypassing the
    /// queue, through the same admission and settlement as [`drain`].
    ///
    /// [`drain`]: SimServer::drain
    fn serve_inline(&mut self, req: SimRequest, backoff_cycles: u64) -> SimResponse {
        let admitted = self.admit(&req, backoff_cycles);
        let sim = match admitted.plan {
            Plan::Deadline(_) => None,
            Plan::Hit { .. } => {
                obs::counter_add("serve.cache_hits", 1);
                None
            }
            Plan::Miss => {
                obs::counter_add("serve.cache_misses", 1);
                let device = self.device_config(req.device);
                Some(simulate_request(&req, device))
            }
        };
        obs::counter_add("serve.requests", 1);
        let response = self.settle(req, admitted, sim, true);
        self.breaker.sync_obs();
        obs::gauge_set("serve.hit_rate", self.cache.hit_rate());
        response
    }

    /// Phase A for one request, on the owner thread in admission order:
    /// content-address it, then run the deadline gate *before* the cache
    /// lookup, so the verdict is identical on cold and warm caches.
    fn admit(&mut self, req: &SimRequest, backoff_cycles: u64) -> Admitted {
        let remaining = self.remaining_for(req, backoff_cycles);
        let canonical = req.canonical_string();
        let key = fnv1a64(canonical.as_bytes());
        let plan = match remaining.and_then(|r| self.deadline_gate(req, r)) {
            Some(e) => Plan::Deadline(e),
            None => {
                let t0 = Instant::now();
                match self.cache.lookup(key, &canonical) {
                    Some(served) => Plan::Hit {
                        served,
                        latency_ns: t0.elapsed().as_nanos() as u64,
                    },
                    None => Plan::Miss,
                }
            }
        };
        Admitted {
            key,
            canonical,
            remaining,
            plan,
        }
    }

    /// Settles one admitted request on the owner thread; `sim` is its
    /// simulation when it missed. A gated request fails its deadline; any
    /// other answer with reports, hit or miss, gets [`deadline_verdict`]
    /// against the remaining budget; a miss is cached only when it
    /// succeeded and passed — so everything inserted fit its budget.
    fn settle(
        &mut self,
        req: SimRequest,
        admitted: Admitted,
        sim: Option<Answer>,
        degraded_admission: bool,
    ) -> SimResponse {
        let Admitted {
            key,
            canonical,
            remaining,
            plan,
        } = admitted;
        let (mut answer, hit) = match plan {
            Plan::Deadline(e) => (Answer::failed(e), false),
            Plan::Hit { served, latency_ns } => (
                Answer {
                    result: Ok(served),
                    latency_ns,
                },
                true,
            ),
            Plan::Miss => (
                sim.expect("every miss is simulated before it settles"),
                false,
            ),
        };
        if let Ok(served) = &answer.result {
            if let Some(e) = remaining.and_then(|r| deadline_verdict(r, &served.reports)) {
                answer.result = Err(e);
            } else if !hit {
                self.cache.insert(key, canonical, served.clone());
            }
        }
        let from_cache = hit && answer.result.is_ok();
        let response = self.respond(req, key, answer, from_cache, degraded_admission);
        // Breaker feedback: the ladder's recorded degradations mark the
        // failed rungs, the served method the healthy one. Only genuine
        // serves feed it — deadline/shed verdicts say nothing about rung
        // health.
        if response.outcome == ServeOutcome::Served {
            self.breaker
                .note_outcome(response.request.kernel_family, response.degradations.len());
        }
        response
    }

    /// The one response constructor. The outcome follows from the
    /// answer: `Overloaded` only arises at admission (a shed),
    /// `DeadlineExceeded` at any deadline stage, and any other error is a
    /// failed simulation. An error answer carries no reports and the
    /// requested method. Counts the response, and deadline verdicts.
    fn respond(
        &mut self,
        request: SimRequest,
        key: u64,
        answer: Answer,
        from_cache: bool,
        degraded_admission: bool,
    ) -> SimResponse {
        let outcome = match &answer.result {
            Ok(_) => ServeOutcome::Served,
            Err(DefconError::Overloaded { .. }) => ServeOutcome::Shed,
            Err(DefconError::DeadlineExceeded { .. }) => ServeOutcome::DeadlineExceeded,
            Err(_) => ServeOutcome::Failed,
        };
        self.served += 1;
        if outcome == ServeOutcome::DeadlineExceeded {
            self.deadline_exceeded += 1;
            obs::counter_add("serve.deadline_exceeded", 1);
        }
        let (reports, method, degradations, error) = match answer.result {
            Ok(fb) => (fb.reports, fb.method, fb.degradations, None),
            Err(e) => (
                Vec::new(),
                request.kernel_family,
                Vec::new(),
                Some(e.to_string()),
            ),
        };
        SimResponse {
            dcn_overhead_ms: self.lut_overhead(&request),
            request,
            key,
            reports,
            method,
            degradations,
            from_cache,
            degraded_admission,
            latency_ns: answer.latency_ns,
            error,
            outcome,
        }
    }

    fn lut_overhead(&self, req: &SimRequest) -> Option<f64> {
        let lut = self.lut.as_ref()?;
        lut.dcn_overhead_ms(&LatencyKey::of(&req.layer)).ok()
    }

    /// Drives a whole request stream through admission control. Per
    /// request, in order:
    ///
    /// 1. **Breaker planning** — the request's entry rung is stepped down
    ///    past any texture rung whose circuit breaker refuses (and the
    ///    `breaker.trip` fault can force the requested rung open first).
    /// 2. **Submit, retry with backoff** — on overload, drain the
    ///    backlog, charge a seeded exponential backoff in virtual cycles
    ///    against the request's deadline budget, and re-attempt (the
    ///    `retry.attempt` fault fails an attempt outright). The default
    ///    [`RetryPolicy`] (one retry) reproduces the original
    ///    drain-and-retry-once behaviour.
    /// 3. **Degrade or shed** — when retries are exhausted, step one
    ///    ladder rung down and serve inline; a request already at the
    ///    software floor is terminally shed with an `Overloaded` error
    ///    response. A backoff spend that exhausts the deadline budget
    ///    short-circuits to a `DeadlineExceeded` response.
    ///
    /// Every request produces exactly one response; responses come back
    /// in submission order.
    pub fn serve(&mut self, reqs: &[SimRequest]) -> Vec<SimResponse> {
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            let req = self.plan_admission(req);
            let deadline = self.effective_deadline(&req);
            if self.submit_with(req.clone(), 0).is_ok() {
                continue;
            }
            let mut backoff_spent = 0u64;
            let mut attempt = 0u32;
            let mut settled = false;
            let mut last_err: Option<DefconError> = None;
            while attempt < self.cfg.retry.max_retries {
                out.extend(self.drain());
                let pause = self.cfg.retry.backoff_cycles(attempt);
                backoff_spent = backoff_spent.saturating_add(pause);
                self.retries += 1;
                obs::counter_add("serve.retries", 1);
                obs::event_with("serve.retry", || {
                    vec![
                        ("attempt", Json::from(attempt as u64)),
                        ("backoff_cycles", Json::from(pause)),
                    ]
                });
                if deadline != 0 && backoff_spent >= deadline {
                    // The backoff alone exhausted the budget: the request
                    // is terminally deadline-exceeded without simulating.
                    let e = DefconError::DeadlineExceeded {
                        what: "serve backoff".to_string(),
                        budget_cycles: deadline,
                    };
                    let key = req.cache_key();
                    out.push(self.respond(req.clone(), key, Answer::failed(e), false, false));
                    settled = true;
                    break;
                }
                // The `retry.attempt` fault fails this re-attempt before
                // the queue is consulted (a lost admission race).
                let result = if fault::fires("retry.attempt") {
                    Err(DefconError::Overloaded {
                        what: "serve retry".to_string(),
                        queue_depth: self.queue.len(),
                        capacity: self.cfg.queue_capacity,
                    })
                } else {
                    self.submit_with(req.clone(), backoff_spent)
                };
                match result {
                    Ok(()) => {
                        settled = true;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
                attempt += 1;
            }
            if settled {
                continue;
            }
            // Retries exhausted: degrade one rung, or terminally shed at
            // the software floor.
            let err = last_err.unwrap_or(DefconError::Overloaded {
                what: "serve queue".to_string(),
                queue_depth: self.queue.len(),
                capacity: self.cfg.queue_capacity,
            });
            match req.degraded() {
                Some(degraded) => {
                    self.degraded_admissions += 1;
                    obs::event_with("serve.degrade", || {
                        vec![
                            ("from", Json::str(req.kernel_family.name())),
                            ("to", Json::str(degraded.kernel_family.name())),
                            ("error", Json::str(err.to_string())),
                        ]
                    });
                    out.push(self.serve_inline(degraded, backoff_spent));
                }
                None => {
                    self.terminal_sheds += 1;
                    obs::counter_add("serve.sheds_terminal", 1);
                    obs::event_with("serve.shed_terminal", || {
                        vec![
                            ("kernel_family", Json::str(req.kernel_family.name())),
                            ("error", Json::str(err.to_string())),
                        ]
                    });
                    let key = req.cache_key();
                    out.push(self.respond(req.clone(), key, Answer::failed(err), false, false));
                }
            }
        }
        out.extend(self.drain());
        out
    }

    /// Breaker-aware admission planning: force-opens the requested rung
    /// when the `breaker.trip` fault fires, then steps the request down
    /// past rungs whose breakers refuse. The fault (like the breakers) is
    /// only consulted for guarded (texture) rungs, so software-floor
    /// request streams keep their fault-log indices.
    fn plan_admission(&mut self, req: &SimRequest) -> SimRequest {
        if req.kernel_family == SamplingMethod::SoftwareBilinear {
            return req.clone();
        }
        if fault::fires("breaker.trip") {
            if let Some(b) = self.breaker.rung_mut(req.kernel_family) {
                b.trip();
            }
        }
        let planned = self.breaker.plan(req.kernel_family);
        if planned != req.kernel_family {
            obs::event_with("serve.breaker.reroute", || {
                vec![
                    ("from", Json::str(req.kernel_family.name())),
                    ("to", Json::str(planned.name())),
                ]
            });
        }
        self.breaker.sync_obs();
        SimRequest {
            kernel_family: planned,
            ..req.clone()
        }
    }

    /// The sizing this server was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Read-only view of the report cache (stats and size).
    pub fn cache(&self) -> &ReportCache<DeformFallback> {
        &self.cache
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests shed by admission control.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Responses produced over this server's lifetime.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Requests that were degraded at admission before being served.
    pub fn degraded_admissions(&self) -> u64 {
        self.degraded_admissions
    }

    /// Requests terminally shed at the software floor (each still
    /// produced an error-carrying response).
    pub fn terminal_sheds(&self) -> u64 {
        self.terminal_sheds
    }

    /// Requests that ended deadline-exceeded (admission gate, preflight,
    /// backoff exhaustion, or the walk over the answer's launches).
    pub fn deadline_exceeded(&self) -> u64 {
        self.deadline_exceeded
    }

    /// Admission re-attempts made by [`SimServer::serve`]'s retry loop.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Read-only view of the ladder circuit breakers (states and the
    /// combined transition log).
    pub fn breaker(&self) -> &LadderBreaker {
        &self.breaker
    }
}

/// Nearest-rank percentile (`p` in 0–100) of an ascending-sorted sample,
/// for the serving bench's p50/p99 latency summary. 0 for empty input.
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_request(c: usize, family: SamplingMethod) -> SimRequest {
        SimRequest {
            device: ServeDevice::XavierAgx,
            layer: DeformLayerShape::same3x3(c, c, 10, 10),
            kernel_family: family,
            op_family: OpFamily::DcnV1,
            backend: BackendKind::Gpusim,
            policy: RequestPolicy {
                max_blocks: 16,
                ..RequestPolicy::default()
            },
        }
    }

    /// An empty cached answer for the cache-mechanics tests.
    fn served(method: SamplingMethod) -> DeformFallback {
        DeformFallback {
            reports: Vec::new(),
            method,
            degradations: Vec::new(),
        }
    }

    fn cfg(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_capacity: 8,
            cache_capacity: 32,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn canonical_form_is_stable_and_parses() {
        let req = tiny_request(4, SamplingMethod::Tex2dPlusPlus);
        let a = req.canonical_string();
        let b = req.canonical_string();
        assert_eq!(a, b);
        let doc = Json::parse(&a).expect("canonical form is valid JSON");
        assert_eq!(doc.str_field("device"), Ok("xavier-agx"));
        assert_eq!(doc.str_field("kernel_family"), Ok("tex2D++"));
    }

    #[test]
    fn device_names_round_trip() {
        for d in ServeDevice::all() {
            assert_eq!(ServeDevice::from_name(d.canonical_name()), Some(d));
            assert!(!d.config().name.is_empty());
        }
        assert_eq!(ServeDevice::from_name("abacus"), None);
    }

    #[test]
    fn queue_overflow_is_a_typed_overloaded_error() {
        let _quiet = fault::quiesce();
        let mut server = SimServer::new(ServeConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 8,
            ..ServeConfig::default()
        });
        let req = tiny_request(2, SamplingMethod::SoftwareBilinear);
        server.submit(req.clone()).expect("first fits");
        server.submit(req.clone()).expect("second fits");
        let err = server.submit(req).expect_err("third overflows");
        assert!(matches!(
            err,
            DefconError::Overloaded {
                queue_depth: 2,
                capacity: 2,
                ..
            }
        ));
        assert!(err.is_degradable());
        assert_eq!(server.sheds(), 1);
    }

    #[test]
    fn worker_count_does_not_change_response_bytes() {
        let _quiet = fault::quiesce();
        let reqs: Vec<SimRequest> = [
            SamplingMethod::Tex2dPlusPlus,
            SamplingMethod::Tex2d,
            SamplingMethod::SoftwareBilinear,
        ]
        .into_iter()
        .flat_map(|m| [tiny_request(2, m), tiny_request(4, m)])
        .collect();
        let serve_with = |workers: usize| -> Vec<String> {
            let mut server = SimServer::new(cfg(workers));
            let mut contents: Vec<String> = server
                .serve(&reqs)
                .iter()
                .map(SimResponse::content_string)
                .collect();
            contents.sort();
            contents
        };
        assert_eq!(serve_with(1), serve_with(3));
    }

    #[test]
    fn cache_hits_are_byte_identical_and_counted() {
        let _quiet = fault::quiesce();
        let mut server = SimServer::new(cfg(1));
        let reqs = vec![
            tiny_request(2, SamplingMethod::Tex2d),
            tiny_request(4, SamplingMethod::Tex2d),
        ];
        let cold = server.serve(&reqs);
        let warm = server.serve(&reqs);
        assert!(cold.iter().all(|r| !r.from_cache));
        assert!(warm.iter().all(|r| r.from_cache));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.content_string(), w.content_string());
        }
        assert_eq!(server.cache().hits(), 2);
        assert_eq!(server.cache().misses(), 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let _quiet = fault::quiesce();
        let mut cache = ReportCache::new(2).with_fault_point("serve.cache");
        let served = served(SamplingMethod::Tex2d);
        cache.insert(1, "a".into(), served.clone());
        cache.insert(2, "b".into(), served.clone());
        assert!(cache.lookup(1, "a").is_some(), "refresh a");
        cache.insert(3, "c".into(), served); // evicts b, the LRU
        assert!(cache.lookup(1, "a").is_some());
        assert!(cache.lookup(2, "b").is_none());
        assert!(cache.lookup(3, "c").is_some());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn collision_without_matching_canonical_is_a_miss() {
        let _quiet = fault::quiesce();
        let mut cache = ReportCache::new(4).with_fault_point("serve.cache");
        cache.insert(7, "a".into(), served(SamplingMethod::Tex2d));
        assert!(
            cache.lookup(7, "b").is_none(),
            "same key, different content"
        );
        assert!(cache.lookup(7, "a").is_some());
    }

    #[test]
    fn degraded_request_steps_down_the_ladder() {
        let req = tiny_request(2, SamplingMethod::Tex2dPlusPlus);
        let d1 = req.degraded().expect("tex2D++ degrades");
        assert_eq!(d1.kernel_family, SamplingMethod::Tex2d);
        let d2 = d1.degraded().expect("tex2D degrades");
        assert_eq!(d2.kernel_family, SamplingMethod::SoftwareBilinear);
        assert_eq!(d2.degraded(), None);
        // Only the family changes — the rest of the request is intact.
        assert_eq!(d2.layer, req.layer);
        assert_eq!(d2.policy, req.policy);
    }

    #[test]
    fn lut_backed_responses_carry_dcn_overhead() {
        let _quiet = fault::quiesce();
        let req = tiny_request(2, SamplingMethod::Tex2d);
        let gpu = Gpu::new(ServeDevice::XavierAgx.config());
        let lut = LatencyLut::build(
            &gpu,
            &[LatencyKey::of(&req.layer)],
            SamplingMethod::Tex2d,
            defcon_kernels::op::OffsetPredictorKind::Standard,
            OpFamily::DcnV1,
        );
        let mut server = SimServer::new(cfg(1)).with_lut(lut);
        let out = server.serve(std::slice::from_ref(&req));
        assert!(out[0].dcn_overhead_ms.is_some());
        // A layer outside the LUT yields None, not an error.
        let out2 = server.serve(&[tiny_request(4, SamplingMethod::Tex2d)]);
        assert!(out2[0].dcn_overhead_ms.is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [10, 20, 30, 40];
        assert_eq!(percentile_ns(&sample, 50.0), 20);
        assert_eq!(percentile_ns(&sample, 99.0), 40);
        assert_eq!(percentile_ns(&sample, 0.0), 10);
        assert_eq!(percentile_ns(&[], 50.0), 0);
    }

    fn deadline_request(c: usize, deadline_cycles: u64) -> SimRequest {
        let mut req = tiny_request(c, SamplingMethod::SoftwareBilinear);
        req.policy.deadline_cycles = deadline_cycles;
        req
    }

    #[test]
    fn impossible_deadline_is_a_typed_terminal_verdict_and_never_cached() {
        let _quiet = fault::quiesce();
        let mut server = SimServer::new(cfg(1));
        let req = deadline_request(2, 1);
        let out = server.serve(std::slice::from_ref(&req));
        assert_eq!(out[0].outcome, ServeOutcome::DeadlineExceeded);
        assert!(out[0].reports.is_empty());
        let rendered = out[0].error.as_deref().expect("verdict carries an error");
        assert!(rendered.contains("deadline exceeded"), "{rendered}");
        assert!(rendered.contains("launch"), "{rendered}");
        assert_eq!(server.deadline_exceeded(), 1);
        // Exceeded requests are never cached: a replay misses again and
        // renders the identical verdict (determinism across temperature).
        let again = server.serve(std::slice::from_ref(&req));
        assert_eq!(server.cache().hits(), 0);
        assert_eq!(out[0].content_string(), again[0].content_string());
    }

    #[test]
    fn malformed_layer_is_a_failed_response_and_never_cached() {
        let _quiet = fault::quiesce();
        let mut server = SimServer::new(cfg(1));
        let base = DeformLayerShape::same3x3(4, 4, 10, 10);
        let cases = [
            (
                DeformLayerShape { stride: 0, ..base },
                "stride must be positive",
            ),
            // Served before any tensor is shaped from it: its offsets alone
            // would be 18·2³² floats.
            (
                DeformLayerShape {
                    h: 1 << 16,
                    w: 1 << 16,
                    ..base
                },
                "the input buffer's 68719476736 bytes overrun",
            ),
        ];
        for (layer, detail) in cases {
            let req = SimRequest {
                layer,
                ..tiny_request(4, SamplingMethod::Tex2dPlusPlus)
            };
            for _ in 0..2 {
                let out = server.serve(std::slice::from_ref(&req));
                assert_eq!(out[0].outcome, ServeOutcome::Failed);
                assert!(out[0].reports.is_empty() && out[0].degradations.is_empty());
                let rendered = out[0].error.as_deref().expect("failure carries an error");
                assert!(rendered.contains(detail), "{rendered}");
            }
        }
        assert_eq!(server.cache().len(), 0);
        assert_eq!(server.cache().misses(), 4);
    }

    #[test]
    fn generous_deadline_hits_cache_with_identical_bytes() {
        let _quiet = fault::quiesce();
        let mut server = SimServer::new(cfg(1));
        let req = deadline_request(2, u64::MAX / 2);
        let cold = server.serve(std::slice::from_ref(&req));
        let warm = server.serve(std::slice::from_ref(&req));
        assert_eq!(cold[0].outcome, ServeOutcome::Served);
        assert!(!cold[0].from_cache);
        assert!(warm[0].from_cache, "second serve must hit");
        assert_eq!(cold[0].content_string(), warm[0].content_string());
        // A budgeted request keys separately from its unbudgeted twin.
        let unbudgeted = tiny_request(2, SamplingMethod::SoftwareBilinear);
        assert_ne!(req.cache_key(), unbudgeted.cache_key());
    }

    /// A deadline the miss's first launch fits and its second does not:
    /// the verdict names the GEMM, cold and warm alike.
    #[test]
    fn deadline_on_a_miss_second_launch_names_that_launch() {
        let _quiet = fault::quiesce();
        let probe =
            SimServer::new(cfg(1)).serve(&[tiny_request(4, SamplingMethod::SoftwareBilinear)]);
        let charges: Vec<u64> = probe[0]
            .reports
            .iter()
            .map(|r| r.cycles.ceil() as u64)
            .collect();
        assert_eq!(charges.len(), 2, "software im2col + GEMM");
        let deadline = charges[0] + charges[1] / 2;
        let mut server = SimServer::new(cfg(1));
        let req = deadline_request(4, deadline);
        let cold = server.serve(std::slice::from_ref(&req));
        let warm = server.serve(std::slice::from_ref(&req));
        assert_eq!(cold[0].outcome, ServeOutcome::DeadlineExceeded);
        let want = format!("launch conv_gemm deadline exceeded (budget {deadline} cycles)");
        assert_eq!(cold[0].error.as_deref(), Some(want.as_str()));
        assert_eq!(cold[0].content_string(), warm[0].content_string());
        assert_eq!(server.cache().len(), 0);
    }

    #[test]
    fn server_default_deadline_applies_to_unbudgeted_requests() {
        let _quiet = fault::quiesce();
        let mut server = SimServer::new(ServeConfig {
            default_deadline_cycles: 1,
            ..cfg(1)
        });
        let req = tiny_request(2, SamplingMethod::SoftwareBilinear);
        let out = server.serve(std::slice::from_ref(&req));
        assert_eq!(out[0].outcome, ServeOutcome::DeadlineExceeded);
        // A request-level budget overrides the server default.
        let generous = deadline_request(2, u64::MAX / 2);
        let out2 = server.serve(std::slice::from_ref(&generous));
        assert_eq!(out2[0].outcome, ServeOutcome::Served);
    }

    #[test]
    fn hit_verdict_replays_the_engine_charge_exactly() {
        // The walk must trip at the first launch whose cumulative integer
        // charge crosses the remaining budget.
        let mk = |kernel: &str, cycles: f64| KernelReport {
            device: "test".into(),
            kernel: kernel.to_string(),
            time_ms: 0.0,
            cycles,
            grid_blocks: 0,
            simulated_blocks: 0,
            counters: Default::default(),
        };
        let reports = [mk("a", 100.2), mk("b", 50.0)];
        // ceil(100.2) = 101; 101 + 50 = 151.
        assert!(deadline_verdict(151, &reports).is_none());
        match deadline_verdict(150, &reports) {
            Some(DefconError::DeadlineExceeded {
                what,
                budget_cycles,
            }) => {
                assert_eq!(what, "launch b");
                assert_eq!(budget_cycles, 150);
            }
            other => panic!("expected a deadline verdict, got {other:?}"),
        }
        match deadline_verdict(100, &reports) {
            Some(DefconError::DeadlineExceeded { what, .. }) => assert_eq!(what, "launch a"),
            other => panic!("expected a deadline verdict, got {other:?}"),
        }
        // The charge the walk applies is the ceiling of the cycles.
        assert_eq!(charge_units(100.2), 101);
    }

    #[test]
    fn tripped_breaker_reroutes_requests_down_the_ladder() {
        use defcon_support::fault::{FaultPlan, Schedule};
        // Trip the tex2D++ rung on the first request only; admission must
        // land it on tex2D, and the breaker log records the edge.
        let _armed = fault::arm(FaultPlan::new(7).point("breaker.trip", Schedule::Nth(0)));
        let mut server = SimServer::new(cfg(1));
        let req = tiny_request(2, SamplingMethod::Tex2dPlusPlus);
        let out = server.serve(std::slice::from_ref(&req));
        assert_eq!(out[0].request.kernel_family, SamplingMethod::Tex2d);
        assert_eq!(
            server.breaker().state(SamplingMethod::Tex2dPlusPlus),
            BreakerState::Open
        );
        assert_eq!(
            server.breaker().log(),
            ["tex2D++:closed->open:trip".to_string()]
        );
        // The open rung recovers: after the cooldown's worth of consults
        // a probe is admitted, and its success re-closes the breaker.
        let consults = server.cfg.breaker.cooldown_consults as usize + 1;
        for _ in 0..consults {
            server.serve(std::slice::from_ref(&req));
        }
        assert_eq!(
            server.breaker().state(SamplingMethod::Tex2dPlusPlus),
            BreakerState::Closed
        );
        let log = server.breaker().log();
        assert!(
            log.iter().any(|l| l.contains("open->half-open")),
            "missing probe edge in {log:?}"
        );
        assert!(
            log.iter().any(|l| l.contains("closed")),
            "missing recovery edge in {log:?}"
        );
    }

    #[test]
    fn retry_and_env_knobs_parse() {
        // `serve()` counts one retry per drain-and-retry pass (the
        // default policy retries once, reproducing the original
        // behaviour).
        assert_eq!(RetryPolicy::default().max_retries, 1);
        std::env::set_var(env::RETRY_MAX, "5");
        std::env::set_var(env::SERVE_DEADLINE, "123456");
        let cfg = ServeConfig::default()
            .with_env_overrides()
            .expect("valid overrides");
        std::env::remove_var(env::RETRY_MAX);
        std::env::remove_var(env::SERVE_DEADLINE);
        assert_eq!(cfg.retry.max_retries, 5);
        assert_eq!(cfg.default_deadline_cycles, 123_456);
    }
}
