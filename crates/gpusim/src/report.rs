//! Kernel execution reports and nvprof-style counters.

use defcon_support::json::{Json, ToJson};

/// The counter fields, named once: JSON serialization, `merge` and `scale`
/// are all generated from this list so a new counter cannot be added
/// to the struct and silently dropped from the report.
macro_rules! for_each_counter {
    ($m:ident) => {
        $m!(
            flops,
            alu_ops,
            gld_requests,
            gld_transactions,
            gld_requested_bytes,
            gst_requests,
            gst_transactions,
            gst_requested_bytes,
            tex_requests,
            tex_line_accesses,
            tex_hits,
            l1_hits,
            l1_accesses,
            l2_hits,
            l2_accesses,
            dram_read_bytes,
            dram_write_bytes
        )
    };
}

/// Hardware counters accumulated over one kernel launch — the same
/// quantities `nvprof` reports in Fig. 10 of the paper, plus the cache-level
/// detail behind them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Scalar floating-point operations executed (FMA counted as 2).
    pub flops: u64,
    /// Integer / addressing operations executed.
    pub alu_ops: u64,
    /// Warp-level global load instructions.
    pub gld_requests: u64,
    /// 32-byte sectors moved for global loads.
    pub gld_transactions: u64,
    /// Bytes the program requested via global loads.
    pub gld_requested_bytes: u64,
    /// Warp-level global store instructions.
    pub gst_requests: u64,
    /// Sectors moved for global stores.
    pub gst_transactions: u64,
    /// Bytes requested by global stores.
    pub gst_requested_bytes: u64,
    /// Warp-level texture fetch instructions (one per staged-plan replay).
    pub tex_requests: u64,
    /// Texture-cache line accesses generated by fetch footprints.
    pub tex_line_accesses: u64,
    /// Texture-cache hits.
    pub tex_hits: u64,
    /// L1 hits (global path).
    pub l1_hits: u64,
    /// L1 accesses (global path).
    pub l1_accesses: u64,
    /// L2 hits (all paths).
    pub l2_hits: u64,
    /// L2 accesses (all paths).
    pub l2_accesses: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
}

impl Counters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, o: &Counters) {
        macro_rules! add_each {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        for_each_counter!(add_each);
    }

    /// Scales every counter by `k` (used when extrapolating sampled blocks).
    ///
    /// `scale(1.0)` is an exact identity: an exhaustive launch (sampling
    /// factor 1) must report the counters it measured, so the no-op case
    /// short-circuits before the `u64 → f64` round trip, which would
    /// otherwise corrupt values above 2^53.
    pub fn scale(&self, k: f64) -> Counters {
        if k == 1.0 {
            return self.clone();
        }
        let s = |v: u64| (v as f64 * k).round() as u64;
        macro_rules! scale_each {
            ($($f:ident),*) => { Counters { $( $f: s(self.$f), )* } };
        }
        for_each_counter!(scale_each)
    }

    /// `gld_efficiency` as nvprof defines it: requested global load
    /// throughput over required throughput (bytes requested / bytes moved),
    /// in percent. 100 % when no global loads were issued.
    pub fn gld_efficiency(&self) -> f64 {
        let moved = self.gld_transactions * crate::coalesce::SECTOR_BYTES;
        if moved == 0 {
            100.0
        } else {
            100.0 * self.gld_requested_bytes as f64 / moved as f64
        }
    }

    /// Average sectors per global load request (`gld_transactions_per_request`).
    pub fn gld_transactions_per_request(&self) -> f64 {
        if self.gld_requests == 0 {
            0.0
        } else {
            self.gld_transactions as f64 / self.gld_requests as f64
        }
    }

    /// MFLOP executed (the Fig. 10 `MFLOP` bar).
    pub fn mflop(&self) -> f64 {
        self.flops as f64 / 1e6
    }

    /// Texture-cache hit rate in `[0, 1]`.
    pub fn tex_hit_rate(&self) -> f64 {
        if self.tex_line_accesses == 0 {
            0.0
        } else {
            self.tex_hits as f64 / self.tex_line_accesses as f64
        }
    }

    /// L1 hit rate (global path) in `[0, 1]`.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }

    /// Merges every counter into the `support::obs` typed registry under
    /// `<prefix>.<field>`, and publishes the three cache hit rates as
    /// gauges. No-op (one relaxed atomic load) while obs is disarmed.
    pub fn record_obs(&self, prefix: &str) {
        if !defcon_support::obs::armed() {
            return;
        }
        macro_rules! record_each {
            ($($f:ident),*) => { $(
                defcon_support::obs::counter_add(
                    &format!("{prefix}.{}", stringify!($f)),
                    self.$f,
                );
            )* };
        }
        for_each_counter!(record_each);
        defcon_support::obs::gauge_set(&format!("{prefix}.l1_hit_rate"), self.l1_hit_rate());
        defcon_support::obs::gauge_set(&format!("{prefix}.tex_hit_rate"), self.tex_hit_rate());
        defcon_support::obs::gauge_set(&format!("{prefix}.l2_hit_rate"), self.l2_hit_rate());
    }
}

impl ToJson for Counters {
    fn to_json(&self) -> Json {
        macro_rules! emit_each {
            ($($f:ident),*) => { Json::obj(vec![ $( (stringify!($f), Json::from(self.$f)), )* ]) };
        }
        for_each_counter!(emit_each)
    }
}

/// The outcome of one simulated kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelReport {
    /// Device name.
    pub device: String,
    /// Kernel label (for profiling tables).
    pub kernel: String,
    /// Wall-clock estimate in milliseconds (includes launch overhead).
    pub time_ms: f64,
    /// Core cycles of the execution phase.
    pub cycles: f64,
    /// Thread blocks in the launch.
    pub grid_blocks: usize,
    /// Blocks actually simulated (≤ grid for sampled launches).
    pub simulated_blocks: usize,
    /// Extrapolated hardware counters.
    pub counters: Counters,
}

impl ToJson for KernelReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("device", Json::str(&self.device)),
            ("kernel", Json::str(&self.kernel)),
            ("time_ms", Json::from(self.time_ms)),
            ("cycles", Json::from(self.cycles)),
            ("grid_blocks", Json::from(self.grid_blocks)),
            ("simulated_blocks", Json::from(self.simulated_blocks)),
            ("counters", self.counters.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_support::prop::{self, Config};
    use defcon_support::rng::{Rng, StdRng};
    use defcon_support::{prop_assert, prop_assert_eq};

    /// One random counter set, every field drawn from `0..max`.
    fn random_counters(rng: &mut StdRng, max: u64) -> Counters {
        macro_rules! gen_each {
            ($($f:ident),*) => { Counters { $( $f: rng.gen_range(0u64..max), )* } };
        }
        for_each_counter!(gen_each)
    }

    fn merged(a: &Counters, b: &Counters) -> Counters {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    #[test]
    fn prop_merge_is_associative_and_commutative() {
        prop::check(
            "merge associativity/commutativity",
            &Config::cases(64),
            |rng| {
                (
                    random_counters(rng, 1 << 40),
                    random_counters(rng, 1 << 40),
                    random_counters(rng, 1 << 40),
                )
            },
            |(a, b, c)| {
                prop_assert_eq!(merged(&merged(a, b), c), merged(a, &merged(b, c)));
                prop_assert_eq!(merged(a, b), merged(b, a));
                Ok(())
            },
        );
    }

    #[test]
    fn prop_scale_one_is_exact_identity() {
        // Including values above 2^53, where a u64 → f64 → u64 round trip
        // would corrupt the counter if scale(1.0) did not short-circuit.
        prop::check(
            "scale(1.0) is identity",
            &Config::cases(64),
            |rng| {
                let mut c = random_counters(rng, u64::MAX);
                c.flops = u64::MAX - rng.gen_range(0u64..1000);
                c
            },
            |c| {
                prop_assert_eq!(c.scale(1.0), c.clone());
                Ok(())
            },
        );
    }

    #[test]
    fn prop_scale_rounding_error_is_bounded() {
        prop::check(
            "scale rounds to nearest",
            &Config::cases(64),
            |rng| (random_counters(rng, 1 << 40), rng.gen_range(0.01f64..100.0)),
            |(c, k)| {
                let s = c.scale(*k);
                macro_rules! check_each {
                    ($($f:ident),*) => { $( {
                        let exact = c.$f as f64 * k;
                        let err = (s.$f as f64 - exact).abs();
                        // 0.5 from round-to-nearest plus f64 rounding slack.
                        prop_assert!(
                            err <= 0.5 + exact.abs() * 1e-12,
                            "{}: {} * {k} -> {} (err {err})",
                            stringify!($f), c.$f, s.$f
                        );
                    } )* };
                }
                for_each_counter!(check_each);
                Ok(())
            },
        );
    }

    #[test]
    fn hit_rates_cover_empty_and_partial() {
        assert_eq!(Counters::default().l1_hit_rate(), 0.0);
        assert_eq!(Counters::default().l2_hit_rate(), 0.0);
        let c = Counters {
            l1_hits: 3,
            l1_accesses: 4,
            l2_hits: 1,
            l2_accesses: 8,
            ..Default::default()
        };
        assert!((c.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert!((c.l2_hit_rate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn record_obs_merges_into_registry() {
        let _g = defcon_support::obs::arm(defcon_support::obs::ObsConfig::default());
        let c = Counters {
            flops: 10,
            l1_hits: 1,
            l1_accesses: 2,
            ..Default::default()
        };
        c.record_obs("test");
        c.record_obs("test");
        assert_eq!(defcon_support::obs::counter("test.flops"), 20);
        assert_eq!(defcon_support::obs::gauge("test.l1_hit_rate"), Some(0.5));
    }

    #[test]
    fn efficiency_perfect_when_dense() {
        let c = Counters {
            gld_requested_bytes: 128,
            gld_transactions: 4,
            ..Default::default()
        };
        assert!((c.gld_efficiency() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_degrades_with_waste() {
        let c = Counters {
            gld_requested_bytes: 128,
            gld_transactions: 32,
            ..Default::default()
        };
        assert!((c.gld_efficiency() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn efficiency_without_loads_is_100() {
        assert_eq!(Counters::default().gld_efficiency(), 100.0);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = Counters {
            flops: 10,
            tex_requests: 4,
            ..Default::default()
        };
        let b = Counters {
            flops: 5,
            tex_requests: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.flops, 15);
        let s = a.scale(2.0);
        assert_eq!(s.flops, 30);
        assert_eq!(s.tex_requests, 10);
    }

    #[test]
    fn transactions_per_request() {
        let c = Counters {
            gld_requests: 4,
            gld_transactions: 32,
            ..Default::default()
        };
        assert!((c.gld_transactions_per_request() - 8.0).abs() < 1e-12);
    }
}
