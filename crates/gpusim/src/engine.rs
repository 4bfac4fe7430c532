//! The launch engine: drives block traces through the memory system and
//! integrates time with a roofline-plus-latency model.
//!
//! # Determinism
//!
//! [`Gpu::launch`] walks the sampled blocks in ascending order through one
//! L1, one texture cache and one launch-wide L2, on the calling thread. A
//! report is therefore a pure function of (kernel, device, sampling
//! budget), byte for byte, whatever `DEFCON_THREADS` says.
//!
//! The simulator's parallelism lives one level up, across independent
//! work items: a LUT key, a sweep row, a network cell, a serving miss.
//! Callers fan those out with `defcon_support::par::map` on
//! [`SamplePolicy::threads`] workers, each item on this same serial walk,
//! and get their results back in input order — so reports and traces are
//! the same bytes at every thread count.
//!
//! # Launch memo
//!
//! A [`Gpu::memoizing`] copy answers a repeated *pure* launch from a
//! [`ReportCache`] instead of re-simulating it. Every launch starts with
//! cold modelled caches, and a kernel that returns a
//! [`BlockTrace::memo_key`] reads nothing but the fields that key spells
//! out, so its report is a pure function of (key, device, policy) — the
//! last two fixed for one `Gpu`. A hit is therefore the same report a
//! fresh launch would return, byte for byte.

use crate::cache::Cache;
use crate::device::{CacheGeometry, DeviceConfig};
use crate::report::{Counters, KernelReport};
use crate::report_cache::ReportCache;
use crate::trace::{BlockCost, BlockTrace, TraceSink};
use defcon_support::error::DefconError;
use defcon_support::json::Json;
use defcon_support::obs;
use defcon_support::rng::fnv1a64;
use std::cell::RefCell;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Simulator worker threads implied by the environment: the
/// `DEFCON_THREADS` env var if set to a positive integer, else **1**, so
/// an unadorned run fans nothing out.
///
/// Unlike `defcon_support::par::max_threads`, which defaults to all
/// available cores, callers that simulate independent items read this
/// opt-in count (via [`SamplePolicy::threads`]).
pub fn default_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        defcon_support::env::or_die(defcon_support::env::threads_override()).unwrap_or(1)
    })
}

/// Block-sampling policy for large grids.
///
/// Simulating every thread block of a 550×550 feature map is unnecessary:
/// blocks of a convolution grid are statistically interchangeable. The
/// engine simulates a deterministic stratified sample (every `k`-th block,
/// covering the whole grid) and scales both time and counters by the
/// sampling factor.
#[derive(Clone, Copy, Debug)]
pub struct SamplePolicy {
    /// Maximum number of blocks to simulate.
    pub max_blocks: usize,
    /// The worker count callers use to fan out independent simulations
    /// (`defcon_support::par::map`); the engine itself never reads it, so
    /// it cannot change a report. Defaults to [`default_threads`].
    pub threads: usize,
}

impl Default for SamplePolicy {
    fn default() -> Self {
        SamplePolicy {
            max_blocks: 96,
            threads: default_threads(),
        }
    }
}

impl SamplePolicy {
    /// Simulate every block, no sampling.
    pub fn exhaustive() -> Self {
        SamplePolicy {
            max_blocks: usize::MAX,
            ..SamplePolicy::default()
        }
    }

    /// The same policy with an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// The stratified block indices to simulate for a `grid`-block launch.
    ///
    /// Index `i` maps to `⌊i·grid/max_blocks⌋`, computed exactly in `u128`.
    /// Because `grid > max_blocks` on this path, consecutive indices differ
    /// by at least 1, so the sample is strictly increasing — the previous
    /// `f64` stride with a `(i·stride).min(grid-1)` tail clamp could emit
    /// duplicate indices near the end of large grids, double-counting those
    /// blocks after scaling.
    pub fn select(&self, grid: usize) -> Vec<usize> {
        assert!(self.max_blocks > 0, "max_blocks must be positive");
        if grid <= self.max_blocks {
            (0..grid).collect()
        } else {
            let mut sample: Vec<usize> = (0..self.max_blocks)
                .map(|i| (i as u128 * grid as u128 / self.max_blocks as u128) as usize)
                .collect();
            // Belt and braces: the exact arithmetic above cannot repeat an
            // index, but a duplicate would silently skew the scale factor,
            // so keep the dedup (a no-op pass on a sorted vec).
            sample.dedup();
            debug_assert!(sample.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(*sample.last().unwrap() < grid);
            sample
        }
    }
}

/// Average outstanding memory requests a warp can keep in flight — scales
/// how much latency the warp scheduler can hide.
const MLP_PER_WARP: f64 = 4.0;

/// Entry bound of a launch memo. One Table III network has 16–20 distinct
/// pure launches, so the bound never evicts there; past it the memo only
/// loses hits, never exactness.
const MEMO_CAPACITY: usize = 256;

thread_local! {
    /// Modelled caches of earlier launches on this thread, kept for reuse.
    /// Allocating and freeing every launch's tag arrays (the 2080 Ti L2's
    /// is 256 KB) left glibc's heap trimming at the mercy of unrelated
    /// small allocations: in perfbench's `serve_zipf` most runs went from
    /// 6.6 to 7.9 µs per cache hit when a launch stopped making three
    /// small ones. Reuse takes the tag arrays out of that churn.
    static SPARE_CACHES: RefCell<Vec<Cache>> = const { RefCell::new(Vec::new()) };
}

/// A cold cache of `geometry`: a spare of that geometry from an earlier
/// launch on this thread, flushed, or a new one. Flushed is exactly new,
/// so reuse cannot change a report.
fn cold_cache(geometry: CacheGeometry) -> Cache {
    SPARE_CACHES.with(|spares| {
        let mut spares = spares.borrow_mut();
        match spares.iter().position(|c| c.geometry() == geometry) {
            Some(i) => {
                let mut cache = spares.swap_remove(i);
                cache.flush();
                cache.reset_stats();
                cache
            }
            None => Cache::new(geometry),
        }
    })
}

/// Keeps a launch's caches for the next launch on this thread, at most two
/// devices' worth.
fn spare_caches(caches: [Cache; 3]) {
    SPARE_CACHES.with(|spares| {
        let mut spares = spares.borrow_mut();
        spares.extend(caches);
        let excess = spares.len().saturating_sub(6);
        spares.drain(..excess);
    });
}

/// The simulated GPU.
pub struct Gpu {
    cfg: DeviceConfig,
    policy: SamplePolicy,
    /// The launch memo of a [`Gpu::memoizing`] copy; `None` otherwise.
    memo: Option<Mutex<ReportCache<KernelReport>>>,
}

impl Gpu {
    /// A GPU with the default sampling policy.
    pub fn new(cfg: DeviceConfig) -> Self {
        Gpu::with_policy(cfg, SamplePolicy::default())
    }

    /// Overrides the sampling policy.
    pub fn with_policy(cfg: DeviceConfig, policy: SamplePolicy) -> Self {
        Gpu {
            cfg,
            policy,
            memo: None,
        }
    }

    /// A copy of this GPU — same config and policy — with an empty launch
    /// memo (see the module docs). A kernel whose [`BlockTrace::memo_key`]
    /// is `Some` is simulated once per copy; each later launch of an equal
    /// key returns the stored report. Keys are FNV-1a hashed and verified
    /// in full, so a collision only misses. The memo lives and dies with
    /// the copy.
    pub fn memoizing(&self) -> Gpu {
        Gpu {
            cfg: self.cfg.clone(),
            policy: self.policy,
            memo: Some(Mutex::new(ReportCache::new(MEMO_CAPACITY))),
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Sampling policy.
    pub fn policy(&self) -> SamplePolicy {
        self.policy
    }

    /// Simulates one kernel launch and returns its report.
    ///
    /// Per-SM caches (L1, texture) are flushed between blocks — blocks are
    /// independent CTAs and, under sampling, generally not neighbours on the
    /// same SM. The sampled blocks run in ascending order on the calling
    /// thread and share one launch-wide L2 (see the module docs).
    ///
    /// The device config is trusted, and the launch panics on an empty
    /// grid or a zero `max_blocks`; paths fed by external configuration use
    /// [`Gpu::try_launch`].
    pub fn launch(&self, kernel: &dyn BlockTrace) -> KernelReport {
        let grid = kernel.grid_blocks();
        assert!(grid > 0, "empty grid");
        // The key is built only on a memoizing copy, so an unmemoized
        // launch stays allocation-free up to the simulation itself.
        let Some(memo) = &self.memo else {
            return self.simulate(kernel, grid);
        };
        let Some(canonical) = kernel.memo_key() else {
            return self.simulate(kernel, grid);
        };
        let key = fnv1a64(canonical.as_bytes());
        // The lock is held only for one lookup or insert, never across a
        // simulation (`hit` is bound before the match so the lookup's guard
        // drops first), and both leave the cache valid at every step, so a
        // guard poisoned by another thread's panic is safe to recover.
        let lock = || memo.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = lock().lookup(key, &canonical);
        match hit {
            Some(stored) => {
                let report = KernelReport {
                    device: self.cfg.name.clone(),
                    kernel: kernel.label(),
                    ..stored
                };
                obs::counter_add("gpusim.memo.hits", 1);
                obs::event_with("gpusim.launch.memo", || {
                    vec![
                        ("kernel", Json::str(&report.kernel)),
                        ("cycles", Json::from(report.cycles)),
                    ]
                });
                report
            }
            None => {
                obs::counter_add("gpusim.memo.misses", 1);
                let report = self.simulate(kernel, grid);
                // Stored without the device and kernel labels, which a hit
                // takes back from `self.cfg` and `kernel` (where
                // `finish_report` got them). A memo lives through a whole
                // network whose deformable slots allocate and free
                // multi-MB inputs, and small allocations that outlive a
                // launch change how the heap is reused: storing the labels
                // ran perfbench's `t3_r101` at 0.376–0.403 networks/s
                // against 0.404–0.424 on a 2-core host, at the same peak
                // RSS (DESIGN.md §4, "Memory").
                let stored = KernelReport {
                    device: String::new(),
                    kernel: String::new(),
                    counters: report.counters.clone(),
                    ..report
                };
                lock().insert(key, canonical, stored);
                report
            }
        }
    }

    /// [`Gpu::launch`] behind validation: the device config, the launch
    /// shape and the sampling budget are checked first, and violations
    /// come back as typed [`DefconError::Constraint`]s instead of panics.
    /// A valid launch is byte-identical to `launch`.
    pub fn try_launch(&self, kernel: &dyn BlockTrace) -> Result<KernelReport, DefconError> {
        self.cfg.validate()?;
        let constraint = |detail: String| DefconError::Constraint {
            what: "launch".to_string(),
            detail,
        };
        if kernel.grid_blocks() == 0 {
            return Err(constraint("empty grid (grid_blocks() == 0)".to_string()));
        }
        if kernel.block_threads() == 0 {
            return Err(constraint("empty block (block_threads() == 0)".to_string()));
        }
        if self.policy.max_blocks == 0 {
            return Err(constraint("empty sample (max_blocks == 0)".to_string()));
        }
        Ok(self.launch(kernel))
    }

    /// Simulates a launch of a non-empty grid: walks the sampled blocks in
    /// order and scales the sums to the grid.
    fn simulate(&self, kernel: &dyn BlockTrace, grid: usize) -> KernelReport {
        let warps = kernel.block_threads().div_ceil(self.cfg.warp_size);
        let sample = self.policy.select(grid);
        let launch_span = obs::span_with("gpusim.launch", || {
            vec![
                ("kernel", Json::str(kernel.label())),
                ("grid_blocks", Json::from(grid)),
                ("sampled_blocks", Json::from(sample.len())),
            ]
        });

        let mut l1 = cold_cache(self.cfg.l1);
        let mut tex = cold_cache(self.cfg.tex_cache);
        let mut l2 = cold_cache(self.cfg.l2);
        let mut sm_cycles_total = 0.0f64;
        let mut counters = Counters::default();
        // The blocks' texture figures, summed for obs.
        let (mut tex_lanes, mut filter_texels, mut plan_warps) = (0u64, 0u64, 0u64);
        for &b in &sample {
            l1.flush();
            tex.flush();
            let mut sink = TraceSink::new(&self.cfg, &mut l1, &mut tex, &mut l2, warps);
            kernel.trace_block(b, &mut sink);
            sm_cycles_total += self.block_cycles(&sink.counters, &sink.cost);
            counters.merge(&sink.counters);
            tex_lanes += sink.cost.tex_fetches_fp32 + sink.cost.tex_fetches_fp16;
            filter_texels += sink.cost.filter_texels;
            plan_warps += sink.cost.plan_warps;
        }

        spare_caches([l1, tex, l2]);

        if obs::armed() {
            // Pre-scale aggregates of the walk.
            launch_span.record("cycles", Json::from(sm_cycles_total));
            launch_span.record("l1_hits", Json::from(counters.l1_hits));
            launch_span.record("l1_accesses", Json::from(counters.l1_accesses));
            launch_span.record("tex_hits", Json::from(counters.tex_hits));
            launch_span.record("tex_line_accesses", Json::from(counters.tex_line_accesses));
            launch_span.record("l2_hits", Json::from(counters.l2_hits));
            launch_span.record("l2_accesses", Json::from(counters.l2_accesses));
            launch_span.record("l1_hit_rate", Json::from(counters.l1_hit_rate()));
            launch_span.record("tex_hit_rate", Json::from(counters.tex_hit_rate()));
            launch_span.record("l2_hit_rate", Json::from(counters.l2_hit_rate()));
            // Sampler-level figures (lanes fetched, texels blended, plans
            // staged and replayed) reach consumers only through obs, so the
            // report JSON and its content-addressed serving keys stay
            // byte-stable. A plan replay is one texture request.
            launch_span.record("tex_fetch_lanes", Json::from(tex_lanes));
            launch_span.record("tex_filter_texels", Json::from(filter_texels));
            launch_span.record("tex_plan_warps", Json::from(plan_warps));
            launch_span.record("tex_plan_evals", Json::from(counters.tex_requests));
            counters.record_obs("gpusim");
            obs::counter_add("gpusim.texture.fetch_lanes", tex_lanes);
            obs::counter_add("gpusim.texture.filter_texels", filter_texels);
            obs::counter_add("gpusim.texture.plan_warps", plan_warps);
            obs::counter_add("gpusim.texture.plan_evals", counters.tex_requests);
        }
        self.finish_report(kernel, grid, sample.len(), sm_cycles_total, counters)
    }

    /// Extrapolates sampled totals to the full grid and integrates time.
    fn finish_report(
        &self,
        kernel: &dyn BlockTrace,
        grid: usize,
        simulated: usize,
        sm_cycles_total: f64,
        counters: Counters,
    ) -> KernelReport {
        let scale = grid as f64 / simulated as f64;
        let counters = counters.scale(scale);

        // Kernel cycles: SM work spread over all SMs, but never faster than
        // DRAM can feed the chip.
        let sm_term = sm_cycles_total * scale / self.cfg.num_sms as f64;
        let dram_bytes = (counters.dram_read_bytes + counters.dram_write_bytes) as f64;
        let dram_term = dram_bytes / self.cfg.dram_bytes_per_cycle();
        // A grid smaller than the SM count cannot use the whole chip.
        let usable_sms = grid.min(self.cfg.num_sms) as f64;
        let sm_term = sm_term * (self.cfg.num_sms as f64 / usable_sms);
        let cycles = sm_term.max(dram_term);

        let time_ms = self.cfg.cycles_to_ms(cycles) + self.cfg.launch_overhead_us * 1e-3;
        KernelReport {
            device: self.cfg.name.clone(),
            kernel: kernel.label(),
            time_ms,
            cycles,
            grid_blocks: grid,
            simulated_blocks: simulated,
            counters,
        }
    }

    /// Time for one block on one SM, from the block's ledger: ALU ops and
    /// LSU sectors come from its counters, the rest from its cost.
    ///
    /// Each pipe's occupancy is computed independently; the busiest pipe
    /// sets the floor and a configurable fraction of the other pipes' work
    /// hides beneath it (`overlap_efficiency`). Exposed memory latency
    /// (scaled down by warp-level parallelism) bounds the result from below
    /// when occupancy is poor.
    fn block_cycles(&self, counters: &Counters, c: &BlockCost) -> f64 {
        // An FMA retires per lane per cycle; flop_units counts scalar flops
        // where an FMA contributed 2, so peak is 2×lanes per cycle.
        let compute = c.flop_units as f64 / (2.0 * self.cfg.fp32_lanes_per_sm as f64);
        let alu = counters.alu_ops as f64 / self.cfg.alu_lanes_per_sm as f64;
        // LSU: one 128B line (4 sectors) per cycle, loads and stores alike.
        let lsu = (counters.gld_transactions + counters.gst_transactions) as f64 / 4.0;
        let texp = c.tex_fetches_fp32 as f64 / self.cfg.tex_filter_rate_fp32
            + c.tex_fetches_fp16 as f64 / self.cfg.tex_filter_rate_fp16;
        let pipes = [compute, alu, lsu, texp];
        let busiest = pipes.iter().copied().fold(0.0f64, f64::max);
        let total: f64 = pipes.iter().sum();
        let throughput = busiest + (1.0 - self.cfg.overlap_efficiency) * (total - busiest);
        let parallelism = (c.warps.min(self.cfg.max_warps_per_sm) as f64 * MLP_PER_WARP).max(1.0);
        let latency = c.latency_cycles as f64 / parallelism;
        throughput.max(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::LayeredTexture2d;
    use crate::trace::TraceSink;
    use defcon_support::fault;
    use defcon_support::json::ToJson;

    /// A toy kernel: every block streams `loads_per_thread` coalesced loads
    /// and does `fma_per_thread` FMAs.
    struct StreamKernel {
        blocks: usize,
        threads: usize,
        loads_per_thread: usize,
        fma_per_thread: usize,
    }

    impl BlockTrace for StreamKernel {
        fn grid_blocks(&self) -> usize {
            self.blocks
        }
        fn block_threads(&self) -> usize {
            self.threads
        }
        fn trace_block(&self, block: usize, sink: &mut TraceSink) {
            let warps = self.threads / 32;
            for w in 0..warps {
                for l in 0..self.loads_per_thread {
                    let base = ((block * warps + w) * self.loads_per_thread + l) as u64 * 128;
                    sink.global_load_into((0..32).map(|i| base + i * 4));
                }
                sink.fma((32 * self.fma_per_thread) as u64);
            }
        }
        fn label(&self) -> String {
            "stream".into()
        }
    }

    #[test]
    fn more_work_takes_more_time() {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let small = gpu.launch(&StreamKernel {
            blocks: 16,
            threads: 256,
            loads_per_thread: 4,
            fma_per_thread: 16,
        });
        let big = gpu.launch(&StreamKernel {
            blocks: 64,
            threads: 256,
            loads_per_thread: 4,
            fma_per_thread: 16,
        });
        assert!(big.time_ms > small.time_ms);
    }

    #[test]
    fn faster_device_is_faster() {
        let k = StreamKernel {
            blocks: 256,
            threads: 256,
            loads_per_thread: 8,
            fma_per_thread: 64,
        };
        let xavier = Gpu::new(DeviceConfig::xavier_agx()).launch(&k);
        let turing = Gpu::new(DeviceConfig::rtx2080ti()).launch(&k);
        assert!(
            turing.time_ms < xavier.time_ms,
            "2080Ti {} vs Xavier {}",
            turing.time_ms,
            xavier.time_ms
        );
    }

    #[test]
    fn sampling_preserves_scale_of_counters() {
        let k = StreamKernel {
            blocks: 1000,
            threads: 64,
            loads_per_thread: 2,
            fma_per_thread: 4,
        };
        let exhaustive =
            Gpu::with_policy(DeviceConfig::xavier_agx(), SamplePolicy::exhaustive()).launch(&k);
        let sampled = Gpu::with_policy(
            DeviceConfig::xavier_agx(),
            SamplePolicy {
                max_blocks: 50,
                ..SamplePolicy::default()
            },
        )
        .launch(&k);
        assert_eq!(sampled.simulated_blocks, 50);
        // StreamKernel issues the same load count in every block, so the
        // stratified sample must extrapolate the counter *exactly* (up to
        // the ±0.5 scale rounding) — not merely "within 5%".
        let ratio = sampled.counters.gld_requests as f64 / exhaustive.counters.gld_requests as f64;
        assert!(
            (ratio - 1.0).abs() < 1e-9,
            "counter extrapolation off by {ratio}"
        );
        let t_ratio = sampled.time_ms / exhaustive.time_ms;
        assert!(
            (t_ratio - 1.0).abs() < 0.15,
            "time extrapolation off by {t_ratio}"
        );
    }

    #[test]
    fn prop_sampled_extrapolation_error_is_bounded() {
        use defcon_support::prop::{self, Config};
        use defcon_support::rng::Rng;

        // For a block-homogeneous kernel, sampled-then-scaled counters must
        // match the exhaustive run to within the scale() rounding of ±0.5
        // per counter — a tight bound on the extrapolation machinery itself.
        prop::check(
            "sampled counters extrapolate exactly for homogeneous kernels",
            &Config::cases(12),
            |rng| {
                (
                    rng.gen_range(100usize..800),
                    rng.gen_range(10usize..60),
                    rng.gen_range(1usize..4),
                )
            },
            |&(blocks, max_blocks, loads_per_thread)| {
                let k = StreamKernel {
                    blocks,
                    threads: 64,
                    loads_per_thread,
                    fma_per_thread: 4,
                };
                let exhaustive =
                    Gpu::with_policy(DeviceConfig::xavier_agx(), SamplePolicy::exhaustive())
                        .launch(&k);
                let sampled = Gpu::with_policy(
                    DeviceConfig::xavier_agx(),
                    SamplePolicy {
                        max_blocks,
                        ..SamplePolicy::default()
                    },
                )
                .launch(&k);
                for (name, got, want) in [
                    (
                        "gld_requests",
                        sampled.counters.gld_requests,
                        exhaustive.counters.gld_requests,
                    ),
                    ("flops", sampled.counters.flops, exhaustive.counters.flops),
                    (
                        "gld_transactions",
                        sampled.counters.gld_transactions,
                        exhaustive.counters.gld_transactions,
                    ),
                ] {
                    let err = (got as f64 - want as f64).abs();
                    defcon_support::prop_assert!(
                        err <= 1.0,
                        "{name}: sampled {got} vs exhaustive {want} \
                         (blocks {blocks}, max_blocks {max_blocks})"
                    );
                }
                Ok(())
            },
        );
    }

    #[test]
    fn sample_policy_covers_grid() {
        let p = SamplePolicy {
            max_blocks: 10,
            ..SamplePolicy::default()
        };
        let idx = p.select(1000);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0], 0);
        assert!(*idx.last().unwrap() >= 900);
        // No sampling when the grid is small.
        assert_eq!(p.select(5), vec![0, 1, 2, 3, 4]);
    }

    /// Regression for the tail-clamp bug: the old `f64` stride with
    /// `.min(grid - 1)` could repeat indices near the end of large grids;
    /// the exact integer mapping must stay strictly increasing (hence
    /// duplicate-free) and in-range on stress geometries.
    #[test]
    fn sample_indices_unique_sorted_in_range_on_stress_grids() {
        let cases: &[(usize, usize)] = &[
            (1000, 10),
            (97, 96),
            (1_000_000, 96),
            ((1usize << 53) + 3, 96),      // beyond exact f64 integer range
            ((1usize << 60) + 7, 1000),    // huge grid, fine stride
            (1_000_003, 1_000_002),        // stride barely above 1
            (u32::MAX as usize * 11, 777), // irrational-ish ratio
        ];
        for &(grid, max_blocks) in cases {
            let p = SamplePolicy {
                max_blocks,
                ..SamplePolicy::default()
            };
            let idx = p.select(grid);
            assert_eq!(
                idx.len(),
                max_blocks.min(grid),
                "({grid},{max_blocks}): wrong sample size"
            );
            assert_eq!(idx[0], 0, "({grid},{max_blocks}): block 0 missing");
            assert!(
                idx.windows(2).all(|w| w[0] < w[1]),
                "({grid},{max_blocks}): duplicate or unsorted index"
            );
            assert!(
                *idx.last().unwrap() < grid,
                "({grid},{max_blocks}): index out of range"
            );
            // Tail coverage: the last sampled block sits within one stride
            // of the end of the grid.
            assert!(
                grid - idx.last().unwrap() <= grid.div_ceil(max_blocks),
                "({grid},{max_blocks}): tail of the grid not covered"
            );
        }
    }

    /// The thread count is the callers' fan-out width only: a launch
    /// walks its blocks serially, so every count gives the same bytes.
    #[test]
    fn thread_count_never_changes_a_report() {
        let k = StreamKernel {
            blocks: 500,
            threads: 128,
            loads_per_thread: 3,
            fma_per_thread: 8,
        };
        let report = |threads: usize| {
            Gpu::with_policy(
                DeviceConfig::xavier_agx(),
                SamplePolicy::default().with_threads(threads),
            )
            .launch(&k)
            .to_json()
            .to_string()
        };
        let one = report(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(report(threads), one, "threads={threads}");
        }
    }

    /// Texture-heavy vs. scattered-global kernels: the texture path must be
    /// faster — this is the microarchitectural core of the whole paper.
    struct BilinearKernel {
        use_texture: bool,
        tex: LayeredTexture2d,
        blocks: usize,
    }

    impl BlockTrace for BilinearKernel {
        fn grid_blocks(&self) -> usize {
            self.blocks
        }
        fn block_threads(&self) -> usize {
            128
        }
        fn trace_block(&self, block: usize, sink: &mut TraceSink) {
            // Each warp's 32 lanes cover consecutive output pixels; every
            // tap is one warp instruction.
            for w in 0..4usize {
                let lane_pos: Vec<(f32, f32)> = (0..32)
                    .map(|lane| {
                        let t = (block * 128 + w * 32 + lane) % (56 * 56);
                        ((t / 56) as f32 + 0.37, (t % 56) as f32 + 0.61)
                    })
                    .collect();
                for tap in 0..9usize {
                    // Deformable sampling: each lane's tap lands at its own
                    // learned offset — lanes diverge by a few pixels, which
                    // is what wrecks coalescing in the software kernel.
                    let jitter = |lane: usize| {
                        let dy = ((lane * 7 + tap * 3) % 9) as f32 - 4.0 + 0.4;
                        let dx = ((lane * 5 + tap * 11) % 9) as f32 - 4.0 + 0.7;
                        (dy, dx)
                    };
                    if self.use_texture {
                        let coords = lane_pos.iter().enumerate().map(|(lane, &(y, x))| {
                            let (dy, dx) = jitter(lane);
                            (y + dy, x + dx)
                        });
                        sink.tex_fetch_warp_into(&self.tex, 0, coords);
                        sink.fma(32);
                    } else {
                        // Software bilinear: 4 warp loads (one per
                        // neighbour), scattered per lane, + ~8 flops/lane.
                        for (oy, ox) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
                            sink.global_load_into(lane_pos.iter().enumerate().map(
                                |(lane, &(y, x))| {
                                    let (dy, dx) = jitter(lane);
                                    let yy = (y + dy).max(0.0) as u64 + oy;
                                    let xx = (x + dx).max(0.0) as u64 + ox;
                                    (yy * 64 + xx) * 4
                                },
                            ));
                        }
                        sink.flop(8 * 32);
                        sink.fma(32);
                        sink.alu(6 * 32); // boundary branches + address math
                    }
                }
            }
        }
    }

    #[test]
    fn texture_bilinear_beats_software_bilinear() {
        let mk = |use_texture| BilinearKernel {
            use_texture,
            tex: LayeredTexture2d::new(1, 64, 64, 1 << 32, 2048, 32768).unwrap(),
            blocks: 64,
        };
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let sw = gpu.launch(&mk(false));
        let hw = gpu.launch(&mk(true));
        assert!(
            hw.time_ms < sw.time_ms,
            "texture path ({} ms) should beat software path ({} ms)",
            hw.time_ms,
            sw.time_ms
        );
        assert!(
            sw.counters.flops > 3 * hw.counters.flops,
            "software path should burn ~4x flops"
        );
        assert_eq!(hw.counters.gld_requests, 0);
        assert!(hw.counters.tex_requests > 0);
        assert!(sw.counters.gld_efficiency() < 100.0);
    }

    #[test]
    fn try_launch_rejects_empty_grids_and_blocks_as_typed_constraints() {
        let _quiet = fault::quiesce();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        for (blocks, threads, detail) in [(0, 128, "empty grid"), (4, 0, "empty block")] {
            let k = StreamKernel {
                blocks,
                threads,
                loads_per_thread: 1,
                fma_per_thread: 1,
            };
            let e = gpu.try_launch(&k).unwrap_err();
            assert!(
                matches!(&e, DefconError::Constraint { what, detail: d }
                    if what == "launch" && d.starts_with(detail)),
                "{e}"
            );
        }
    }
}
