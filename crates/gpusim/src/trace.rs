//! The trace interface between kernels and the timing engine.
//!
//! A kernel implements [`BlockTrace`]; the engine calls
//! [`BlockTrace::trace_block`] once per simulated thread block, handing it a
//! [`TraceSink`]. The sink processes every event *immediately* — coalescing
//! warp loads, walking the cache hierarchy, bumping counters and
//! accumulating pipe occupancies — so traces never materialize in memory.
//!
//! The sink computes only what the timing model and the report read: a
//! texture instruction walks the byte addresses of its texels, never their
//! values (the numeric path samples through [`LayeredTexture2d::fetch`]),
//! and each block keeps one ledger — its [`Counters`] plus a [`BlockCost`]
//! holding only what the counters cannot.
//!
//! # Two forms of a warp access, one sector walk
//!
//! A global load names its lanes in one of two forms:
//!
//! * **lanes** ([`TraceSink::global_load_into`]) — one byte address per
//!   lane, for lanes that scatter (the software sampler's bilinear corner
//!   gathers). The sink stages them and coalesces them into sectors
//!   through the bitmap of [`coalesce_into`].
//! * **runs** ([`TraceSink::global_load_runs`], and
//!   [`TraceSink::global_store_runs`] for every store) — a list of [`Run`]s,
//!   each `lanes` 4-byte words spaced `spacing` bytes apart, for the dense
//!   streams of the GEMM, convolution and column traces and the offset and
//!   modulation planes. No lane is staged: a run spaced at most one 32-byte
//!   sector apart touches exactly the contiguous sectors
//!   `[first / 32, (last word + 3) / 32]`, because each word starts at most
//!   one sector after the previous word's first sector, so no sector
//!   between the two ends is skipped. Runs that each start at or after the
//!   sector the previous one ended on concatenate into the ascending,
//!   unique list the coalescer would return, once a shared boundary sector
//!   is dropped. Any other list — a wider spacing, or a run that starts
//!   before the last emitted sector — is expanded into lane addresses and
//!   takes the lane path, so the entry point is exact for any input.
//!
//! Both forms leave the same sorted sector list in the sink's scratch, and
//! one walk — L1 → L2 → DRAM in ascending order, with the same MRU
//! shortcut — serves both, so a run and its lanes produce the same
//! counters, latency and cache state (`tests/hot_path_equivalence.rs`).

use crate::cache::{Access, Cache};
use crate::coalesce::{coalesce_into, SECTOR_BYTES};
use crate::device::DeviceConfig;
use crate::report::Counters;
use crate::texture::{FetchPlan, LayeredTexture2d};
pub use defcon_support::lanebuf::LaneBuf;

/// A kernel, from the simulator's point of view: a grid of identical thread
/// blocks, each able to describe its own work.
pub trait BlockTrace {
    /// Number of thread blocks in the grid.
    fn grid_blocks(&self) -> usize;
    /// Threads per block.
    fn block_threads(&self) -> usize;
    /// Emits block `block`'s instruction stream into the sink.
    fn trace_block(&self, block: usize, sink: &mut TraceSink);
    /// Label used in reports.
    fn label(&self) -> String {
        "kernel".into()
    }
    /// The canonical descriptor a memoizing [`crate::Gpu`] keys this
    /// launch by, or `None` (the default) to always simulate it.
    ///
    /// Return `Some` only when the trace reads nothing but the fields the
    /// string spells out — every one of them, label included — so equal
    /// keys are identical launches. Kernels that read tensor data (the
    /// deformable samplers read offsets) stay `None`. Called only on a
    /// memoizing `Gpu`, so building the string costs an unmemoized launch
    /// nothing.
    fn memo_key(&self) -> Option<String> {
        None
    }
}

/// The part of a block's ledger that [`Counters`] does not hold: pipe
/// occupancies in *scalar operation* units, exposed latency and texture
/// planning work. The engine turns it into cycles together with the
/// counters (ALU ops and LSU sectors come from there), and reports the
/// texture figures on the `gpusim.launch` span and as `gpusim.texture.*`
/// registry counters; none of it enters the report JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockCost {
    /// Scalar FP ops (an FMA counts once; [`Counters::flops`] counts it
    /// twice).
    pub flop_units: u64,
    /// Lane texture fetches at fp32 filter precision.
    pub tex_fetches_fp32: u64,
    /// Lane texture fetches at reduced filter precision.
    pub tex_fetches_fp16: u64,
    /// Warp-level coordinate stagings: each plans one set of
    /// [`FetchPlan`]s (floor, quantize, border resolution). The excess of
    /// [`Counters::tex_requests`] over this is the planning `kernels::fused`
    /// saves by replaying one plan across the layers of a deform group.
    pub plan_warps: u64,
    /// Texels the filter read across all lane fetches (≤ 4 per lane;
    /// border clipping shrinks the 2×2 quad).
    pub filter_texels: u64,
    /// Sum of exposed memory latencies (cycles) over warp instructions.
    pub latency_cycles: u64,
    /// Warps in the block (for latency-hiding capacity).
    pub warps: usize,
}

/// A dense warp access: `lanes` 4-byte words, lane `i` at byte address
/// `first + i · spacing`. One warp instruction is a list of runs in lane
/// order (a warp that wraps across rows of a tile is one run per row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Run {
    /// Byte address of the first lane's word.
    pub first: u64,
    /// Number of lanes.
    pub lanes: usize,
    /// Bytes from one lane's word to the next.
    pub spacing: u64,
}

impl Run {
    /// `lanes` consecutive words from byte address `first`.
    pub fn words(first: u64, lanes: usize) -> Run {
        Run {
            first,
            lanes,
            spacing: 4,
        }
    }

    /// Byte address of the last lane's word (`first` for an empty run).
    pub fn last_word(&self) -> u64 {
        self.first + self.lanes.saturating_sub(1) as u64 * self.spacing
    }

    /// The run's lane byte addresses, in lane order.
    pub fn lane_addrs(&self) -> impl Iterator<Item = u64> {
        let Run { first, spacing, .. } = *self;
        (0..self.lanes as u64).map(move |i| first + i * spacing)
    }
}

/// The event sink handed to kernels.
///
/// Owns the per-SM caches for the current block (L1 and texture cache are
/// flushed between blocks by the engine) and borrows the launch-wide L2.
///
/// # Zero-allocation contract
///
/// The sink owns fixed-capacity [`LaneBuf`] scratch for every warp-level
/// event class (lane addresses, address runs, coalesced sectors, texture
/// fetch plans). Every warp-level entry point takes its lanes or runs as
/// an iterator ([`TraceSink::global_load_into`],
/// [`TraceSink::global_load_runs`], [`TraceSink::global_store_runs`],
/// [`TraceSink::tex_fetch_warp_into`]) and drains it into that scratch, so
/// a traced block performs **zero heap allocations** — the contract
/// `tests/zero_alloc.rs` pins for every kernel family.
pub struct TraceSink<'a> {
    cfg: &'a DeviceConfig,
    l1: &'a mut Cache,
    tex: &'a mut Cache,
    l2: &'a mut Cache,
    /// Counters for the current block.
    pub counters: Counters,
    /// The rest of the current block's ledger.
    pub cost: BlockCost,
    /// Staged lane byte addresses of the current scattered load.
    lane_addrs: LaneBuf<u64>,
    /// Staged address runs of the current dense load or store.
    runs: LaneBuf<Run>,
    /// Unique coalesced sectors of the current instruction.
    sectors: LaneBuf<u64>,
    /// Layer-independent fetch plans staged for the current texture warp —
    /// computed once per coordinate set and replayed per layer.
    plans: LaneBuf<FetchPlan>,
    /// `Some(shift)` when the L1 line size is a power-of-two multiple of
    /// the sector size: `line = sector >> shift` replaces the division on
    /// the per-sector walk.
    l1_sector_shift: Option<u32>,
    /// Same for the texture cache's byte-address → line mapping.
    tex_line_shift: Option<u32>,
}

/// `Some(log2(bytes / unit))` when `bytes` is a power-of-two multiple of
/// `unit` — the shift that replaces `addr * unit / bytes` (or `addr / bytes`
/// for `unit == 1`) on the hot walk.
fn pow2_shift(bytes: u64, unit: u64) -> Option<u32> {
    (bytes % unit == 0 && (bytes / unit).is_power_of_two()).then(|| (bytes / unit).trailing_zeros())
}

impl<'a> TraceSink<'a> {
    /// Builds a sink over the engine's cache state.
    pub fn new(
        cfg: &'a DeviceConfig,
        l1: &'a mut Cache,
        tex: &'a mut Cache,
        l2: &'a mut Cache,
        warps: usize,
    ) -> Self {
        let l1_sector_shift = pow2_shift(l1.line_bytes() as u64, SECTOR_BYTES);
        let tex_line_shift = pow2_shift(tex.line_bytes() as u64, 1);
        TraceSink {
            cfg,
            l1,
            tex,
            l2,
            counters: Counters::default(),
            cost: BlockCost {
                warps,
                ..Default::default()
            },
            lane_addrs: LaneBuf::new(),
            runs: LaneBuf::new(),
            sectors: LaneBuf::new(),
            plans: LaneBuf::new(),
            l1_sector_shift,
            tex_line_shift,
        }
    }

    /// Records `n` scalar fused multiply-adds (2 flops each).
    #[inline]
    pub fn fma(&mut self, n: u64) {
        self.counters.flops += 2 * n;
        self.cost.flop_units += n;
    }

    /// Records `n` scalar non-FMA floating-point ops.
    #[inline]
    pub fn flop(&mut self, n: u64) {
        self.counters.flops += n;
        self.cost.flop_units += n;
    }

    /// Records `n` scalar integer/addressing ops.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.counters.alu_ops += n;
    }

    /// One warp-level global **load** instruction over the lane byte
    /// addresses `lane_addrs` yields (4-byte accesses) — the form for lanes
    /// that scatter, such as the software sampler's bilinear corner
    /// gathers. Coalesces them into sectors through the bitmap of
    /// [`coalesce_into`], then takes the one sector walk. The iterator may
    /// borrow the kernel freely — it is drained into the sink's scratch
    /// before any cache work starts.
    pub fn global_load_into(&mut self, lane_addrs: impl IntoIterator<Item = u64>) {
        self.lane_addrs.fill_from(lane_addrs);
        if self.lane_addrs.is_empty() {
            return;
        }
        let requested = coalesce_into(&self.lane_addrs, 4, &mut self.sectors);
        self.global_load_coalesced(requested);
    }

    /// One warp-level global **load** instruction whose lanes form the
    /// address [`Run`]s `runs` yields — the form for dense accesses. The
    /// sectors are derived from each run's first and last word (the
    /// contiguous-range argument in the module docs), then walked exactly
    /// as [`TraceSink::global_load_into`] walks the same lanes.
    pub fn global_load_runs(&mut self, runs: impl IntoIterator<Item = Run>) {
        if let Some(requested) = self.stage_runs(runs) {
            self.global_load_coalesced(requested);
        }
    }

    /// One warp-level global **store** instruction over the address
    /// [`Run`]s `runs` yields (every store the kernels issue is dense).
    /// Stores are modelled as write-through to DRAM (no allocate), which
    /// matches how NVIDIA L1s treat global writes.
    pub fn global_store_runs(&mut self, runs: impl IntoIterator<Item = Run>) {
        let Some(requested) = self.stage_runs(runs) else {
            return;
        };
        let transactions = self.sectors.len() as u64;
        self.counters.gst_requests += 1;
        self.counters.gst_transactions += transactions;
        self.counters.gst_requested_bytes += requested;
        self.counters.dram_write_bytes += transactions * SECTOR_BYTES;
    }

    /// Writes the sorted, unique sectors of the lanes of `runs` into
    /// `sectors` — the list [`coalesce_into`] returns for the same lanes —
    /// and returns the requested bytes, or `None` when no run has a lane.
    /// Ascending runs spaced at most a sector apart are ranges of sectors
    /// (module docs); any other list is expanded into lane addresses and
    /// coalesced like [`TraceSink::global_load_into`]'s.
    fn stage_runs(&mut self, runs: impl IntoIterator<Item = Run>) -> Option<u64> {
        self.runs
            .fill_from(runs.into_iter().filter(|run| run.lanes > 0));
        if self.runs.is_empty() {
            return None;
        }
        self.sectors.clear();
        for run in self.runs.iter() {
            let first = run.first / SECTOR_BYTES;
            let last = (run.last_word() + 3) / SECTOR_BYTES;
            let prev = self.sectors.last().copied();
            if run.spacing > SECTOR_BYTES || prev.is_some_and(|prev| first < prev) {
                self.lane_addrs
                    .fill_from(self.runs.iter().flat_map(Run::lane_addrs));
                return Some(coalesce_into(&self.lane_addrs, 4, &mut self.sectors));
            }
            let start = if prev == Some(first) {
                first + 1
            } else {
                first
            };
            for sector in start..=last {
                self.sectors.push(sector);
            }
        }
        Some(4 * self.runs.iter().map(|run| run.lanes as u64).sum::<u64>())
    }

    /// The one sector walk, over the sorted, unique `sectors` both load
    /// forms stage: L1 → L2 → DRAM in ascending sector order (the order
    /// [`crate::coalesce::coalesce`] returns them in, which the golden
    /// snapshots depend on).
    fn global_load_coalesced(&mut self, requested: u64) {
        let transactions = self.sectors.len() as u64;
        self.counters.gld_requests += 1;
        self.counters.gld_transactions += transactions;
        self.counters.gld_requested_bytes += requested;
        let mut worst = 0u32;
        let line_bytes = self.l1.line_bytes() as u64;
        // Sectors arrive sorted ascending, so sectors sharing a 128B line
        // are adjacent; a repeat of the line just accessed is a guaranteed
        // L1 hit at the MRU front (hit or miss, `access_line` leaves the
        // line there), so it is counted without re-probing.
        let mut prev_line = u64::MAX;
        for i in 0..self.sectors.len() {
            // Sectors are 32B; the caches track 128B lines. Shift instead
            // of divide when the ratio is a power of two (it always is on
            // the shipped geometries).
            let line = match self.l1_sector_shift {
                Some(sh) => self.sectors[i] >> sh,
                None => self.sectors[i] * SECTOR_BYTES / line_bytes,
            };
            let lat = if line == prev_line {
                self.counters.l1_accesses += 1;
                self.counters.l1_hits += 1;
                self.l1.note_mru_hit();
                self.cfg.l1.hit_latency
            } else {
                prev_line = line;
                self.global_line_access(line)
            };
            worst = worst.max(lat);
        }
        self.cost.latency_cycles += worst as u64;
    }

    fn global_line_access(&mut self, line: u64) -> u32 {
        self.counters.l1_accesses += 1;
        if self.l1.access_line(line) == Access::Hit {
            self.counters.l1_hits += 1;
            return self.cfg.l1.hit_latency;
        }
        self.counters.l2_accesses += 1;
        if self.l2.access_line(line) == Access::Hit {
            self.counters.l2_hits += 1;
            return self.cfg.l2.hit_latency;
        }
        self.counters.dram_read_bytes += SECTOR_BYTES;
        self.cfg.dram_latency
    }

    /// One warp-level texture instruction: every lane fetches a
    /// hardware-filtered sample of `tex` in `layer` at its own fractional
    /// coordinates. All cache traffic and filter-pipe occupancy is
    /// accounted here; the warp stalls once on the slowest footprint line,
    /// mirroring how a `TLD` instruction retires. Border handling costs
    /// nothing — that is the point of the texture path. No texel value is
    /// read: the timing model needs only the addresses.
    pub fn tex_fetch_warp_into(
        &mut self,
        tex: &LayeredTexture2d,
        layer: usize,
        coords: impl IntoIterator<Item = (f32, f32)>,
    ) {
        self.tex_stage_warp(tex, coords);
        self.tex_fetch_staged_warp(tex, layer);
    }

    /// Stages a warp's texture coordinates **without issuing a fetch**:
    /// computes the layer-independent [`FetchPlan`] of every coordinate
    /// (floor, fraction quantization, border resolution) into the sink's
    /// fixed-capacity scratch. Follow with one
    /// [`TraceSink::tex_fetch_staged_warp`] per layer — the plans are valid
    /// until the next staging call. This is how `kernels::fused` exploits
    /// the deform-group structure: all `C_in / G` channels of a group
    /// sample at the same coordinates, so the planning work is paid once
    /// per (group, tap) instead of once per channel.
    pub fn tex_stage_warp(
        &mut self,
        tex: &LayeredTexture2d,
        coords: impl IntoIterator<Item = (f32, f32)>,
    ) {
        self.plans
            .fill_from(coords.into_iter().map(|(y, x)| tex.plan_fetch(y, x)));
        debug_assert!(self.plans.len() <= self.cfg.warp_size);
        self.cost.plan_warps += 1;
    }

    /// One warp-level texture instruction replayed from the staged plans
    /// against `layer`: the same cache traffic, counters and latency as a
    /// fresh [`TraceSink::tex_fetch_warp_into`] at the staged coordinates.
    /// Each lane's footprint is its plan's `rel_addrs` on top of the
    /// layer's base address.
    pub fn tex_fetch_staged_warp(&mut self, tex: &LayeredTexture2d, layer: usize) {
        if self.plans.is_empty() {
            return;
        }
        self.counters.tex_requests += 1;
        if tex.frac_bits <= 10 {
            self.cost.tex_fetches_fp16 += self.plans.len() as u64
        } else {
            self.cost.tex_fetches_fp32 += self.plans.len() as u64
        }
        let layer_base = tex.layer_base(layer);
        let mut worst = 0u32;
        let tex_line_bytes = self.tex.line_bytes() as u64;
        // Adjacent lanes' bilinear footprints overlap heavily; when a
        // lane's first line equals the line the previous probe ended on,
        // it is a guaranteed texture-cache hit at the MRU front and is
        // counted without re-probing (same shortcut as the global walk).
        let mut prev_line = u64::MAX;
        for i in 0..self.plans.len() {
            let (rel_addrs, len) = (self.plans[i].rel_addrs, self.plans[i].len as usize);
            self.cost.filter_texels += len as u64;
            // Unique lines in this lane's footprint go through the texture
            // cache (the quad almost always stays within 1–2 block-linear
            // lines).
            let mut lines = [u64::MAX; 4];
            let mut n_lines = 0usize;
            for &rel in &rel_addrs[..len] {
                let a = layer_base + rel;
                let line = match self.tex_line_shift {
                    Some(sh) => a >> sh,
                    None => a / tex_line_bytes,
                };
                if !lines[..n_lines].contains(&line) {
                    lines[n_lines] = line;
                    n_lines += 1;
                }
            }
            for &line in &lines[..n_lines] {
                self.counters.tex_line_accesses += 1;
                let lat = if line == prev_line {
                    self.counters.tex_hits += 1;
                    self.tex.note_mru_hit();
                    self.cfg.tex_hit_latency
                } else {
                    prev_line = line;
                    if self.tex.access_line(line) == Access::Hit {
                        self.counters.tex_hits += 1;
                        self.cfg.tex_hit_latency
                    } else {
                        self.counters.l2_accesses += 1;
                        if self.l2.access_line(line) == Access::Hit {
                            self.counters.l2_hits += 1;
                            self.cfg.l2.hit_latency
                        } else {
                            self.counters.dram_read_bytes += tex_line_bytes;
                            self.cfg.dram_latency
                        }
                    }
                };
                worst = worst.max(lat);
            }
        }
        self.cost.latency_cycles += worst as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn harness() -> (DeviceConfig, Cache, Cache, Cache) {
        let cfg = DeviceConfig::xavier_agx();
        let l1 = Cache::new(cfg.l1);
        let tex = Cache::new(cfg.tex_cache);
        let l2 = Cache::new(cfg.l2);
        (cfg, l1, tex, l2)
    }

    #[test]
    fn coalesced_load_counts_four_sectors() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 8);
        sink.global_load_into((0..32).map(|i| i * 4));
        assert_eq!(sink.counters.gld_requests, 1);
        assert_eq!(sink.counters.gld_transactions, 4);
        assert!((sink.counters.gld_efficiency() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn scattered_load_hurts_efficiency_and_latency() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 8);
        sink.global_load_into((0..32).map(|i| i * 4096));
        assert_eq!(sink.counters.gld_transactions, 32);
        assert!(sink.counters.gld_efficiency() < 13.0);
        assert!(sink.cost.latency_cycles >= cfg.dram_latency as u64);
    }

    #[test]
    fn repeated_load_hits_l1_and_is_fast() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 8);
        sink.global_load_into((0..32).map(|i| i * 4));
        let lat_cold = sink.cost.latency_cycles;
        sink.global_load_into((0..32).map(|i| i * 4));
        let lat_warm = sink.cost.latency_cycles - lat_cold;
        assert!(lat_warm < lat_cold, "warm {lat_warm} vs cold {lat_cold}");
        assert!(sink.counters.l1_hits > 0);
    }

    #[test]
    fn dense_run_loads_like_its_lanes() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 8);
        sink.global_load_runs([Run::words(0, 32)]);
        assert_eq!(sink.counters.gld_requests, 1);
        assert_eq!(sink.counters.gld_transactions, 4);
        assert_eq!(sink.counters.gld_requested_bytes, 128);
        // A run of zero lanes is no instruction at all.
        sink.global_load_runs([Run::words(4096, 0)]);
        assert_eq!(sink.counters.gld_requests, 1);
    }

    #[test]
    fn runs_sharing_a_sector_count_it_once_and_out_of_order_runs_fall_back() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 8);
        // Words 0..4 and 4..8 of sector 0, then sectors 1–2 at stride 8.
        sink.global_load_runs([
            Run::words(0, 4),
            Run::words(16, 2),
            Run {
                first: 32,
                lanes: 8,
                spacing: 8,
            },
        ]);
        assert_eq!(sink.counters.gld_transactions, 3);
        // Descending runs: the lane path coalesces them into the same set.
        sink.global_load_runs([Run::words(96, 8), Run::words(0, 8)]);
        assert_eq!(sink.counters.gld_transactions, 3 + 2);
        assert_eq!(sink.counters.gld_requested_bytes, 4 * (14 + 16));
    }

    #[test]
    fn store_run_writes_its_sectors_through() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 8);
        // 20 words from byte 16 span bytes 16..96: sectors 0, 1 and 2.
        sink.global_store_runs([Run::words(16, 20)]);
        assert_eq!(sink.counters.gst_requests, 1);
        assert_eq!(sink.counters.gst_transactions, 3);
        assert_eq!(sink.counters.dram_write_bytes, 3 * SECTOR_BYTES);
        assert_eq!(sink.counters.l1_accesses, 0, "stores do not allocate");
    }

    #[test]
    fn tex_fetch_counts_requests() {
        let (cfg, mut l1, mut texc, mut l2) = harness();
        let t = LayeredTexture2d::new(1, 8, 8, 1 << 30, 2048, 32768).unwrap();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut texc, &mut l2, 8);
        sink.tex_fetch_warp_into(&t, 0, [(3.0, 4.0)]);
        assert_eq!(sink.counters.tex_requests, 1);
        assert_eq!(sink.cost.tex_fetches_fp32, 1);
        assert_eq!(
            sink.counters.gld_requests, 0,
            "texture path must not touch global-load counters"
        );
    }

    #[test]
    fn reduced_precision_fetch_uses_fp16_pipe() {
        let (cfg, mut l1, mut texc, mut l2) = harness();
        let mut t = LayeredTexture2d::new(1, 8, 8, 1 << 30, 2048, 32768).unwrap();
        t.frac_bits = 8;
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut texc, &mut l2, 8);
        sink.tex_fetch_warp_into(&t, 0, [(2.5, 2.5)]);
        assert_eq!(sink.cost.tex_fetches_fp16, 1);
        assert_eq!(sink.cost.tex_fetches_fp32, 0);
    }

    #[test]
    fn tex_locality_hits_texture_cache() {
        let (cfg, mut l1, mut texc, mut l2) = harness();
        let t = LayeredTexture2d::new(1, 64, 64, 1 << 30, 2048, 32768).unwrap();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut texc, &mut l2, 8);
        // A tight 2-D walk: overwhelmingly texture-cache hits after warmup.
        for y in 0..8 {
            for x in 0..8 {
                sink.tex_fetch_warp_into(&t, 0, [(y as f32 + 0.3, x as f32 + 0.3)]);
            }
        }
        assert!(
            sink.counters.tex_hit_rate() > 0.8,
            "rate {}",
            sink.counters.tex_hit_rate()
        );
    }

    #[test]
    fn fma_counts_two_flops() {
        let (cfg, mut l1, mut tex, mut l2) = harness();
        let mut sink = TraceSink::new(&cfg, &mut l1, &mut tex, &mut l2, 1);
        sink.fma(10);
        sink.flop(5);
        assert_eq!(sink.counters.flops, 25);
        assert_eq!(sink.cost.flop_units, 15);
    }
}
