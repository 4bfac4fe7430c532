//! # defcon-perfbench
//!
//! The repository benchmark: three workloads that measure the DEFCON
//! reproduction end to end, plus a traced run per workload that attributes
//! host time to the modules it calls. Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload t3_r101 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end set ([`END_TO_END`]); with `--trace 1` they are the
//! per-layer set ([`PER_LAYER`]). Every workload reports every metric of
//! its set; a layer the workload never calls reports 0.
//!
//! End-to-end times are host-adjusted ([`HostClock`]): each op's wall time
//! is scaled by the speed of a fixed reference loop sampled on the same
//! CPU while the op ran, because the shared hosts this runs on slow a
//! single thread by 30–75 % for tens of seconds at a time. The wall-clock
//! figures are printed beside them.
//!
//! Spans of the traced run are recorded in memory by this crate (never by
//! the program's own `support::obs`) around calls into public functions,
//! and written as a Chrome trace under `perfbench/out/` when the run ends.

pub mod serve;
pub mod t2;
pub mod t3;

use defcon_gpusim::KernelReport;
use defcon_support::json::{Json, ToJson};
use defcon_support::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use std::collections::HashSet;
use std::time::Instant;

/// The workloads, each with the reason it exists. `BENCHMARK.json` lists
/// the same names and reasons (a unit test keeps the two in step).
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "t3_r101",
        "Table III end to end: R101 @ 550 on Xavier over three DEFCON cells; ~85% of host time is \
         config-independent GEMM-trace launches",
    ),
    (
        "t2_exhaustive",
        "Table II per layer: six layers x three samplers, every block simulated; ~2/3 of host time \
         is the deformable sampler",
    ),
    (
        "serve_zipf",
        "closed-loop serving of a Zipf(1) stream over 576 requests with a 256-entry report cache: \
         the only workload with reuse and cache writes",
    ),
];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`. An op is one network simulation (`t3_r101`), one sweep
/// (`t2_exhaustive`) or one request (`serve_zipf`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`. Host times (`_s`) are seconds per op. Hit rates, shares
/// and `sim.*` values are modelled and deterministic.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.ms", "ms"),
    ("sim.speedup", "x"),
    ("zoo.tail_s", "s"),
    ("zoo.rigid_s", "s"),
    ("zoo.dcn_s", "s"),
    ("zoo.dcn_sim_share", "ratio"),
    ("zoo.dcn_sim_share_baseline", "ratio"),
    ("core.build_op_s", "s"),
    ("kernels.inputs_s", "s"),
    ("kernels.offset_conv_s", "s"),
    ("kernels.deform_s.sw", "s"),
    ("kernels.deform_s.tex2d", "s"),
    ("kernels.deform_s.tex2dpp", "s"),
    ("gpusim.gemm.blocks_per_s", "1/s"),
    ("gpusim.gemm.l1_hit_rate", "ratio"),
    ("gpusim.gemm.tex_hit_rate", "ratio"),
    ("gpusim.gemm.l2_hit_rate", "ratio"),
    ("gpusim.gemm.sectors_per_req", "count"),
    ("gpusim.gemm.dram_mb", "MB"),
    ("gpusim.im2col.blocks_per_s", "1/s"),
    ("gpusim.im2col.l1_hit_rate", "ratio"),
    ("gpusim.im2col.tex_hit_rate", "ratio"),
    ("gpusim.im2col.l2_hit_rate", "ratio"),
    ("gpusim.im2col.sectors_per_req", "count"),
    ("gpusim.im2col.dram_mb", "MB"),
    ("gpusim.fused.blocks_per_s", "1/s"),
    ("gpusim.fused.l1_hit_rate", "ratio"),
    ("gpusim.fused.tex_hit_rate", "ratio"),
    ("gpusim.fused.l2_hit_rate", "ratio"),
    ("gpusim.fused.sectors_per_req", "count"),
    ("gpusim.fused.dram_mb", "MB"),
    ("serve.canonical_us", "us"),
    ("serve.hit_us", "us"),
    ("serve.miss_gpusim_ms", "ms"),
    ("serve.miss_accel_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.evictions_per_kreq", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("accel.totals_us", "us"),
    ("repeat_share", "ratio"),
    ("repeat_host_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("gpusim.launches", "count"),
];

/// Command-line arguments shared by every workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the measured run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"want 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds {seconds}: want a positive number"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One run's result: the JSON line the benchmark prints last.
#[derive(Debug)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted (network simulations, sweeps or requests).
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj(vec![
                        ("value", Json::from(value)),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Nearest-rank percentile (`p` in 0–100) of an ascending-sorted sample:
/// the value at 1-based rank `ceil(p/100 · n)`. `op_p99_ms` is therefore
/// the 990th of 1000 samples. 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The end-to-end metrics of a measured run from each timed op's host
/// seconds: throughput is ops over their summed time.
pub fn end_to_end(op_s: &[f64], setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
    let mut sorted = op_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let values = [
        op_s.len() as f64 / op_s.iter().sum::<f64>(),
        percentile(&sorted, 50.0) * 1e3,
        percentile(&sorted, 99.0) * 1e3,
        setup_s,
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Prints a measured run's end-to-end figures under the workload's own
/// names (`t3_net_s`, `serve_p99_ms`, …) as `name value unit`, followed
/// by `setup_s` and `peak_rss_mb`; `label` says how they were timed.
pub fn print_figures(
    workload: &str,
    label: &str,
    named: &[(&str, f64, &str)],
    metrics: &[(&'static str, f64, &'static str)],
) {
    let common = metrics
        .iter()
        .filter(|(n, _, _)| ["setup_s", "peak_rss_mb"].contains(n));
    let text: Vec<String> = named
        .iter()
        .chain(common)
        .map(|(n, v, u)| format!("{n} {v:.6} {u}"))
        .collect();
    println!("{workload} figures ({label}): {}", text.join(", "));
}

/// Peak resident set size of this process (`VmHWM`) in MB, 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `build` `reps` times, returning the last result and each build's
/// span (set-up is timed several times so a one-off stall does not decide
/// `setup_s`; report the median of the adjusted spans).
pub fn timed_setup<T>(
    clock: &HostClock,
    reps: usize,
    mut build: impl FnMut() -> T,
) -> (T, Vec<Timed>) {
    let mut spans = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (out, span) = clock.time(&mut build);
        last = Some(std::hint::black_box(out));
        spans.push(span);
    }
    (last.expect("at least one set-up rep"), spans)
}

/// Wall time between two reference-loop samples.
const HOST_PERIOD: std::time::Duration = std::time::Duration::from_millis(20);
/// Fewest samples an op is adjusted by; a shorter op takes the nearest.
const HOST_MIN_SAMPLES: usize = 5;
/// Seconds before and after an op whose samples also adjust it. The
/// host's speed holds for seconds, and a wider window keeps the noise of
/// single samples out of a short op's adjusted time.
const HOST_REACH: f64 = 0.5;
/// Reference-loop seconds at which an adjusted time equals its wall time:
/// about the loop's time on an idle 2-vCPU Xeon sandbox.
pub const REFERENCE_LOOP_S: f64 = 12e-6;
/// Entries of the reference loop's table (1 MiB of `u64`).
const REF_TABLE: usize = 1 << 17;

/// The reference loop: fixed random updates of a table of
/// [`REF_TABLE`] entries, then formatting and hashing, the kinds of work
/// the simulator's cache models and the server do. It is this crate's own
/// code, so no change to the program moves it.
fn reference_loop(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..2048 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x);
    }
    let mut text = String::new();
    for i in 0..64 {
        text.push_str(&format!(
            "{i}:{:x};",
            table[(x as usize).wrapping_add(i) & mask]
        ));
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// An op's start (seconds since the [`HostClock`] started) and wall seconds.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Start, seconds since the clock started.
    pub start: f64,
    /// Wall seconds.
    pub secs: f64,
}

/// The host's momentary speed, sampled while the workload runs.
///
/// The machines this runs on are shared: a single-threaded loop runs
/// 30–75 % slower for tens of seconds at a time while neighbours are busy,
/// with no steal time showing. [`HostClock::start`] pins the workload's
/// thread to its CPU and starts a second thread, pinned to the same CPU,
/// that times a fixed reference loop every [`HOST_PERIOD`]. An op's
/// adjusted time is its wall time times the mean of
/// `REFERENCE_LOOP_S / sample` over the samples taken from [`HOST_REACH`]
/// before it to [`HOST_REACH`] after it: the time it would have taken on a
/// host where the loop takes [`REFERENCE_LOOP_S`]. The sampler takes about
/// 0.2 % of the CPU.
pub struct HostClock {
    origin: Instant,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    sampler: Option<std::thread::JoinHandle<Vec<(f64, f64)>>>,
}

impl HostClock {
    /// Pins the calling thread to its current CPU and starts the sampler
    /// there (both unpinned where the platform refuses).
    pub fn start() -> HostClock {
        let cpu = affinity::pin_here();
        let origin = Instant::now();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                if let Some(cpu) = cpu {
                    affinity::pin(cpu);
                }
                let mut table = vec![0u64; REF_TABLE];
                let mut samples = Vec::new();
                // The flag publishes nothing else: the samples come back
                // through `join`.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::sleep(HOST_PERIOD);
                    samples.push(sample_once(&mut table, origin));
                }
                samples
            })
        };
        HostClock {
            origin,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Runs `f`, returning its result and span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let start = (t0 - self.origin).as_secs_f64();
        (out, Timed { start, secs })
    }

    /// Stops the sampler, waits for it and returns its samples.
    pub fn finish(mut self) -> HostSpeed {
        let samples = self.halt();
        HostSpeed {
            at: samples.iter().map(|s| s.0).collect(),
            speed: samples.iter().map(|s| REFERENCE_LOOP_S / s.1).collect(),
        }
    }

    fn halt(&mut self) -> Vec<(f64, f64)> {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.sampler
            .take()
            .map_or_else(Vec::new, |t| t.join().expect("sampler thread"))
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One sample `(seconds since origin, loop seconds)`: the faster of two
/// back-to-back loops, so the first can warm what the workload evicted.
fn sample_once(table: &mut [u64], origin: Instant) -> (f64, f64) {
    let mut best = (0.0, f64::INFINITY);
    for _ in 0..2 {
        let t0 = Instant::now();
        std::hint::black_box(reference_loop(table));
        let s = t0.elapsed().as_secs_f64();
        if s < best.1 {
            best = ((t0 - origin).as_secs_f64(), s);
        }
    }
    best
}

/// Thread-to-CPU pinning (Linux; elsewhere nothing is pinned).
mod affinity {
    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pins the calling thread to `cpu`; false where that fails.
    #[cfg(target_os = "linux")]
    pub fn pin(cpu: usize) -> bool {
        if cpu >= 64 {
            return false;
        }
        let mask: u64 = 1 << cpu;
        // SAFETY: pid 0 names the calling thread and `mask` is a CPU set
        // of exactly `size_of::<u64>()` readable bytes.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    }

    /// Pins the calling thread to the CPU it runs on and returns that CPU.
    #[cfg(target_os = "linux")]
    pub fn pin_here() -> Option<usize> {
        // SAFETY: takes no arguments and only reads the calling thread's CPU.
        let cpu = unsafe { sched_getcpu() };
        (cpu >= 0 && pin(cpu as usize)).then_some(cpu as usize)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin(_cpu: usize) -> bool {
        false
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin_here() -> Option<usize> {
        None
    }
}

/// The samples of a finished [`HostClock`], in time order.
pub struct HostSpeed {
    at: Vec<f64>,
    speed: Vec<f64>,
}

impl HostSpeed {
    /// Mean `REFERENCE_LOOP_S / sample` over the samples taken within
    /// [`HOST_REACH`] of `[from, to]`, or over the [`HOST_MIN_SAMPLES`]
    /// nearest its middle when fewer fall there; 1 without samples.
    pub fn factor(&self, from: f64, to: f64) -> f64 {
        let n = self.at.len();
        let (mut lo, mut hi) = (
            self.at.partition_point(|&t| t < from - HOST_REACH),
            self.at.partition_point(|&t| t <= to + HOST_REACH),
        );
        if hi - lo < HOST_MIN_SAMPLES {
            let mid = self.at.partition_point(|&t| t < (from + to) / 2.0);
            lo = mid
                .saturating_sub(HOST_MIN_SAMPLES / 2)
                .min(n.saturating_sub(HOST_MIN_SAMPLES));
            hi = (lo + HOST_MIN_SAMPLES).min(n);
        }
        if hi == lo {
            return 1.0;
        }
        self.speed[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }

    /// An op's adjusted seconds.
    pub fn adjust(&self, op: Timed) -> f64 {
        op.secs * self.factor(op.start, op.start + op.secs)
    }

    /// Adjusted seconds of every op.
    pub fn adjust_all(&self, ops: &[Timed]) -> Vec<f64> {
        ops.iter().map(|&op| self.adjust(op)).collect()
    }

    /// Mean factor over the whole run.
    pub fn mean_factor(&self) -> f64 {
        ratio(self.speed.iter().sum(), self.speed.len() as f64)
    }

    /// How adjusted figures were timed, for printing beside them.
    pub fn label(&self) -> String {
        format!(
            "host-adjusted, {} reference samples, mean factor {:.3}",
            self.at.len(),
            self.mean_factor()
        )
    }
}

/// FNV-1a digest over launch reports, in order.
pub fn reports_digest<'a>(reports: impl IntoIterator<Item = &'a KernelReport>) -> u64 {
    let text: Vec<String> = reports
        .into_iter()
        .map(|r| r.to_json().to_string())
        .collect();
    defcon_core::serve::fnv1a64(text.join("\n").as_bytes())
}

/// Signed error of a simulated speedup against the paper's, in percent.
pub fn error_pct(simulated: f64, paper: f64) -> f64 {
    100.0 * (simulated - paper) / paper
}

/// Draws per stratified block of a [`Zipf`] stream.
pub const ZIPF_BLOCK: usize = 256;

/// A seeded Zipf(1) sampler over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1/(r+1)`. The stream is a pure function
/// of the seed.
///
/// Draws are stratified in blocks of [`ZIPF_BLOCK`]: a block takes one
/// uniform from each of its equal slices of `[0, 1)`, in a seeded random
/// order. Each block so holds every popular rank in proportion, and seeds
/// differ in order and in which rare ranks appear, not in how many draws
/// fall in the rare tail, which would otherwise set most of a window's
/// misses.
pub struct Zipf {
    cdf: Vec<f64>,
    rng: StdRng,
    slices: Vec<usize>,
    next_slice: usize,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks.
    pub fn new(n: usize, seed: u64) -> Zipf {
        assert!(n > 0, "Zipf over an empty catalogue");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            rng: StdRng::seed_from_u64(seed),
            slices: (0..ZIPF_BLOCK).collect(),
            next_slice: ZIPF_BLOCK,
        }
    }
}

impl Iterator for Zipf {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.next_slice == ZIPF_BLOCK {
            self.slices.shuffle(&mut self.rng);
            self.next_slice = 0;
        }
        let slice = self.slices[self.next_slice];
        self.next_slice += 1;
        let u = (slice as f64 + self.rng.gen_range(0.0..1.0)) / ZIPF_BLOCK as f64;
        Some(
            self.cdf
                .partition_point(|&c| c <= u)
                .min(self.cdf.len() - 1),
        )
    }
}

/// Counts launches (or requests) whose key already ran earlier in the
/// run, and the host time they took: the ceiling on any memoisation gain.
#[derive(Default)]
pub struct RepeatCounter {
    seen: HashSet<String>,
    /// Keys counted.
    pub total: u64,
    /// Keys that had run before.
    pub repeats: u64,
    /// Host seconds over all counted steps.
    pub host_s: f64,
    /// Host seconds of steps whose every key had run before.
    pub repeat_host_s: f64,
}

impl RepeatCounter {
    /// Marks `key` as already run without counting it (a warm-up).
    pub fn mark_seen(&mut self, key: String) {
        self.seen.insert(key);
    }

    /// Records one step of `keys` (launched together, timed together at
    /// `host_s`); returns how many of them repeated.
    pub fn step(&mut self, keys: &[String], host_s: f64) -> usize {
        let repeated = keys
            .iter()
            .filter(|k| !self.seen.insert((*k).clone()))
            .count();
        self.total += keys.len() as u64;
        self.repeats += repeated as u64;
        self.host_s += host_s;
        if repeated == keys.len() && !keys.is_empty() {
            self.repeat_host_s += host_s;
        }
        repeated
    }

    /// Share of keys that repeated.
    pub fn share(&self) -> f64 {
        ratio(self.repeats as f64, self.total as f64)
    }

    /// Share of host time spent in fully repeated steps.
    pub fn host_share(&self) -> f64 {
        ratio(self.repeat_host_s, self.host_s)
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `kernels.inputs`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// In-memory span recorder for the traced runs.
pub struct Tracer {
    origin: Instant,
    /// Spans in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`; returns its result and seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Total seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Seconds of each span not covered by its direct children.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
            .collect()
    }

    /// Tracing overhead in percent: the self time of the spans named
    /// `root` — the benchmark's own bookkeeping between the timed public
    /// calls — over the time inside those calls.
    pub fn overhead_pct(&self, root: &str) -> f64 {
        let own: f64 = self
            .self_seconds()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == root)
            .map(|(t, _)| t)
            .sum();
        100.0 * ratio(own, self.seconds(root) - own)
    }

    /// Writes the spans as a Chrome trace-event file under `perfbench/out/`
    /// and returns its path. Each span carries its self time.
    pub fn write(&self, file: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let self_s = self.self_seconds();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur", Json::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::from(i)),
                            ("parent", s.parent.map_or(Json::Null, Json::from)),
                            ("self_us", Json::from(self_s[i] * 1e6)),
                        ]),
                    ),
                ])
            })
            .collect();
        let path = dir.join(file);
        std::fs::write(
            &path,
            format!("{}\n", Json::obj(vec![("traceEvents", Json::Arr(events))])),
        )?;
        Ok(path)
    }
}

/// The per-layer metric set of a traced run, every value 0 until set.
pub struct Layers(Vec<(&'static str, f64, &'static str)>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect())
    }
}

impl Layers {
    /// Sets metric `name`; panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    /// The metrics in table order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64, &'static str)> {
        self.0
    }
}

/// The simulator's kernel classes: `gemm` (GEMM, implicit-GEMM, depthwise
/// and pointwise convolutions), `im2col` (deformable column gather) and
/// `fused` (fused texture kernel).
pub const CLASSES: [&str; 3] = ["gemm", "im2col", "fused"];

/// The class of a launch from its kernel label.
pub fn class_of(label: &str) -> &'static str {
    if label.starts_with("deform_im2col") {
        "im2col"
    } else if label.starts_with("deform_fused") {
        "fused"
    } else {
        "gemm"
    }
}

/// Per-class accumulation of simulated blocks, attributed host time and
/// modelled counters.
#[derive(Default)]
pub struct ClassStats {
    blocks: [u64; 3],
    host_s: [f64; 3],
    counters: [defcon_gpusim::Counters; 3],
}

impl ClassStats {
    fn index(class: &str) -> usize {
        CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("known class")
    }

    /// Adds simulated blocks and host seconds to `class`.
    pub fn add_time(&mut self, class: &str, blocks: u64, host_s: f64) {
        let i = Self::index(class);
        self.blocks[i] += blocks;
        self.host_s[i] += host_s;
    }

    /// Splits a software deform stage (gather, then GEMM) that took
    /// `deform_s` host seconds between `im2col` and `gemm`, given `gemm_s`,
    /// the time of the same GEMM launch run again on its own.
    pub fn add_software_stage(&mut self, deform: &[KernelReport], deform_s: f64, gemm_s: f64) {
        let gemm_s = gemm_s.min(deform_s);
        self.add_time(
            "im2col",
            deform[0].simulated_blocks as u64,
            deform_s - gemm_s,
        );
        self.add_time("gemm", deform[1].simulated_blocks as u64, gemm_s);
    }

    /// Merges a report's modelled counters into its class.
    pub fn add_counters(&mut self, report: &KernelReport) {
        self.counters[Self::index(class_of(&report.kernel))].merge(&report.counters);
    }

    /// Writes `gpusim.<class>.*` into `layers`.
    pub fn fill(&self, layers: &mut Layers) {
        for (i, class) in CLASSES.iter().enumerate() {
            let c = &self.counters[i];
            let set = |layers: &mut Layers, field: &str, v: f64| {
                layers.set(&format!("gpusim.{class}.{field}"), v)
            };
            set(
                layers,
                "blocks_per_s",
                ratio(self.blocks[i] as f64, self.host_s[i]),
            );
            set(layers, "l1_hit_rate", c.l1_hit_rate());
            set(layers, "tex_hit_rate", c.tex_hit_rate());
            set(layers, "l2_hit_rate", c.l2_hit_rate());
            set(layers, "sectors_per_req", c.gld_transactions_per_request());
            set(
                layers,
                "dram_mb",
                (c.dram_read_bytes + c.dram_write_bytes) as f64 / 1e6,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_a_pure_function_of_its_seed() {
        let a: Vec<usize> = Zipf::new(576, 7).take(2000).collect();
        let b: Vec<usize> = Zipf::new(576, 7).take(2000).collect();
        let c: Vec<usize> = Zipf::new(576, 8).take(2000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&r| r < 576));
        // Zipf(1): rank 0 is drawn 1/H(576) ≈ 14.4 % of the time, twice
        // as often as rank 1.
        let count = |r: usize| a.iter().filter(|&&x| x == r).count() as f64;
        assert!((200.0..370.0).contains(&count(0)), "{}", count(0));
        assert!(count(0) > 1.4 * count(1));
        // Stratified: every block of 256 draws holds rank 0 in 36 or 37 of
        // its slices (256 × 14.4 % = 36.9).
        for block in a.chunks_exact(ZIPF_BLOCK) {
            let zeros = block.iter().filter(|&&x| x == 0).count();
            assert!((36..=37).contains(&zeros), "{zeros}");
        }
    }

    #[test]
    fn percentile_uses_the_nearest_rank_its_name_claims() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1000.0);
        assert_eq!(percentile(&sorted[..3], 99.0), 3.0);
        assert_eq!(percentile(&sorted[..3], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn host_speed_adjusts_an_op_by_the_samples_around_it() {
        // The loop ran at reference speed for the first second, then half
        // as fast: samples every 0.1 s.
        let at: Vec<f64> = (0..30).map(|i| f64::from(i) * 0.1).collect();
        let speed = at
            .iter()
            .map(|&t| if t < 1.0 { 1.0 } else { 0.5 })
            .collect();
        let host = HostSpeed { at, speed };
        // Well inside the slow spell, 0.6 s of wall time counts as 0.3 s.
        let slow = Timed {
            start: 1.6,
            secs: 0.6,
        };
        assert_eq!(host.adjust(slow), 0.3);
        // At the change, half the samples within reach are slow.
        assert!((host.factor(0.95, 0.96) - 0.75).abs() < 1e-12);
        // Past the last sample, an op takes the five nearest.
        assert_eq!(host.factor(9.0, 9.5), 0.5);
        // Without samples the wall time stands.
        let empty = HostSpeed {
            at: vec![],
            speed: vec![],
        };
        assert_eq!(empty.adjust(slow), 0.6);
    }

    #[test]
    fn repeat_counter_counts_keys_and_fully_repeated_host_time() {
        let mut rc = RepeatCounter::default();
        let k = |s: &str| s.to_string();
        assert_eq!(rc.step(&[k("a"), k("b")], 1.0), 0);
        assert_eq!(rc.step(&[k("a"), k("c")], 2.0), 1);
        assert_eq!(rc.step(&[k("a")], 4.0), 1);
        assert_eq!((rc.repeats, rc.total), (2, 5));
        assert_eq!(rc.host_share(), 4.0 / 7.0);
    }

    #[test]
    fn args_parse_the_driver_command_line() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let a = Args::parse(argv(
            "--workload serve_zipf --seed 3 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_zipf", 3, 20.0, true)
        );
        assert!(Args::parse(argv("--workload nope --seed 3 --seconds 20 --trace 1")).is_err());
        assert!(Args::parse(argv("--workload t3_r101 --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(Args::parse(argv("--workload t3_r101 --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(Args::parse(argv("--workload t3_r101 --seconds 5 --trace 0")).is_err());
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let pairs = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
            doc.field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.str_field(a).unwrap().to_string(),
                        m.str_field(b).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("workloads", "name", "why"), owned(&WORKLOADS));
        assert_eq!(pairs("end_to_end", "name", "unit"), owned(&END_TO_END));
        assert_eq!(pairs("per_layer", "name", "unit"), owned(&PER_LAYER));
    }

    #[test]
    fn kernel_labels_map_to_classes() {
        assert_eq!(class_of("deform_im2col_sw_dcnv2"), "im2col");
        assert_eq!(class_of("deform_fused_tex2dpp"), "fused");
        for l in [
            "conv_gemm",
            "bottleneck_1x1",
            "head_conv",
            "offset_conv",
            "depthwise_conv",
            "offset_pointwise",
        ] {
            assert_eq!(class_of(l), "gemm");
        }
    }
}
