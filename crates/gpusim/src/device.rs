//! Device configurations: the knobs that distinguish a Jetson AGX Xavier
//! from an RTX 2080 Ti in this model.

use defcon_support::error::DefconError;
use defcon_support::fault;
use defcon_support::json::{FromJson, Json, JsonError, ToJson};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Latency of a hit, in core cycles.
    pub hit_latency: u32,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry (set indexing is modular, so
    /// non-power-of-two set counts are fine).
    pub fn num_sets(&self) -> usize {
        let sets = self.size_bytes / (self.line_bytes * self.ways);
        assert!(
            sets > 0,
            "cache too small for its line size and associativity"
        );
        sets
    }

    /// Checks the geometry is realizable (`what` names the cache level in
    /// the error). The same condition `num_sets` asserts, but as a typed
    /// error a config loader can report instead of aborting.
    pub fn validate(&self, what: &str) -> Result<(), DefconError> {
        let constraint = |detail: String| DefconError::Constraint {
            what: "cache-config".to_string(),
            detail: format!("{what}: {detail}"),
        };
        if self.line_bytes == 0 || self.ways == 0 || self.size_bytes == 0 {
            return Err(constraint(format!(
                "size/line/ways must all be positive (got {}/{}/{})",
                self.size_bytes, self.line_bytes, self.ways
            )));
        }
        if self.size_bytes / (self.line_bytes * self.ways) == 0 {
            return Err(constraint(format!(
                "{} B is too small for {} B lines × {} ways (zero sets)",
                self.size_bytes, self.line_bytes, self.ways
            )));
        }
        Ok(())
    }
}

impl ToJson for CacheGeometry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("size_bytes", Json::from(self.size_bytes)),
            ("line_bytes", Json::from(self.line_bytes)),
            ("ways", Json::from(self.ways)),
            ("hit_latency", Json::from(self.hit_latency as u64)),
        ])
    }
}

impl FromJson for CacheGeometry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(CacheGeometry {
            size_bytes: j.usize_field("size_bytes")?,
            line_bytes: j.usize_field("line_bytes")?,
            ways: j.usize_field("ways")?,
            hit_latency: j.u64_field("hit_latency")? as u32,
        })
    }
}

/// A GPU model: enough microarchitectural detail to time the kernels in
/// this reproduction, no more.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable name (appears in reports).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (32 on every NVIDIA part).
    pub warp_size: usize,
    /// Maximum resident warps per SM (occupancy ceiling).
    pub max_warps_per_sm: usize,
    /// Core clock in GHz.
    pub core_clock_ghz: f64,
    /// FP32 FMA lanes per SM (FMAs retired per cycle per SM).
    pub fp32_lanes_per_sm: usize,
    /// Integer/address ALU lanes per SM.
    pub alu_lanes_per_sm: usize,
    /// DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// DRAM access latency in core cycles.
    pub dram_latency: u32,
    /// L2 slice shared by all SMs, one per launch.
    pub l2: CacheGeometry,
    /// Per-SM L1/unified cache.
    pub l1: CacheGeometry,
    /// Per-SM texture cache (read-only path).
    pub tex_cache: CacheGeometry,
    /// Bilinear texture fetches retired per cycle per SM at **fp32** filter
    /// precision. (Most NVIDIA parts filter fp32 textures at half rate.)
    pub tex_filter_rate_fp32: f64,
    /// Bilinear fetches per cycle per SM at reduced (fp16) filter precision
    /// — the `tex2D++` path.
    pub tex_filter_rate_fp16: f64,
    /// Latency of a texture fetch that hits the texture cache, in cycles.
    pub tex_hit_latency: u32,
    /// Fraction of non-critical pipe work hidden under the busiest pipe.
    /// 1.0 = perfect overlap (pure roofline); 0.0 = fully serialized pipes.
    /// Real SMs sit in between because dependent instructions (a texture
    /// fetch feeding an FMA) limit how independently the pipes can run.
    pub overlap_efficiency: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Maximum layers in a 2-D layered texture (2048 on Xavier, §III-B).
    pub max_texture_layers: usize,
    /// Maximum texture extent per dimension (32768 on Xavier, §III-B).
    pub max_texture_dim: usize,
}

impl ToJson for DeviceConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("num_sms", Json::from(self.num_sms)),
            ("warp_size", Json::from(self.warp_size)),
            ("max_warps_per_sm", Json::from(self.max_warps_per_sm)),
            ("core_clock_ghz", Json::from(self.core_clock_ghz)),
            ("fp32_lanes_per_sm", Json::from(self.fp32_lanes_per_sm)),
            ("alu_lanes_per_sm", Json::from(self.alu_lanes_per_sm)),
            ("dram_bandwidth_gbps", Json::from(self.dram_bandwidth_gbps)),
            ("dram_latency", Json::from(self.dram_latency as u64)),
            ("l2", self.l2.to_json()),
            ("l1", self.l1.to_json()),
            ("tex_cache", self.tex_cache.to_json()),
            (
                "tex_filter_rate_fp32",
                Json::from(self.tex_filter_rate_fp32),
            ),
            (
                "tex_filter_rate_fp16",
                Json::from(self.tex_filter_rate_fp16),
            ),
            ("tex_hit_latency", Json::from(self.tex_hit_latency as u64)),
            ("overlap_efficiency", Json::from(self.overlap_efficiency)),
            ("launch_overhead_us", Json::from(self.launch_overhead_us)),
            ("max_texture_layers", Json::from(self.max_texture_layers)),
            ("max_texture_dim", Json::from(self.max_texture_dim)),
        ])
    }
}

impl FromJson for DeviceConfig {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(DeviceConfig {
            name: j.str_field("name")?.to_string(),
            num_sms: j.usize_field("num_sms")?,
            warp_size: j.usize_field("warp_size")?,
            max_warps_per_sm: j.usize_field("max_warps_per_sm")?,
            core_clock_ghz: j.num_field("core_clock_ghz")?,
            fp32_lanes_per_sm: j.usize_field("fp32_lanes_per_sm")?,
            alu_lanes_per_sm: j.usize_field("alu_lanes_per_sm")?,
            dram_bandwidth_gbps: j.num_field("dram_bandwidth_gbps")?,
            dram_latency: j.u64_field("dram_latency")? as u32,
            l2: CacheGeometry::from_json(j.field("l2")?)?,
            l1: CacheGeometry::from_json(j.field("l1")?)?,
            tex_cache: CacheGeometry::from_json(j.field("tex_cache")?)?,
            tex_filter_rate_fp32: j.num_field("tex_filter_rate_fp32")?,
            tex_filter_rate_fp16: j.num_field("tex_filter_rate_fp16")?,
            tex_hit_latency: j.u64_field("tex_hit_latency")? as u32,
            overlap_efficiency: j.num_field("overlap_efficiency")?,
            launch_overhead_us: j.num_field("launch_overhead_us")?,
            max_texture_layers: j.usize_field("max_texture_layers")?,
            max_texture_dim: j.usize_field("max_texture_dim")?,
        })
    }
}

impl DeviceConfig {
    /// NVIDIA Jetson AGX Xavier: 8 Volta SMs @ 1.377 GHz, 512 FP32 cores,
    /// ~137 GB/s LPDDR4x, 512 KB L2 (iGPU), 128 KB unified L1/shared per SM.
    pub fn xavier_agx() -> Self {
        DeviceConfig {
            name: "Jetson-AGX-Xavier".into(),
            num_sms: 8,
            warp_size: 32,
            max_warps_per_sm: 64,
            core_clock_ghz: 1.377,
            fp32_lanes_per_sm: 64,
            alu_lanes_per_sm: 64,
            dram_bandwidth_gbps: 137.0,
            dram_latency: 650, // LPDDR4x on a shared SoC fabric is slow
            l2: CacheGeometry {
                size_bytes: 512 * 1024,
                line_bytes: 128,
                ways: 16,
                hit_latency: 220,
            },
            l1: CacheGeometry {
                size_bytes: 64 * 1024,
                line_bytes: 128,
                ways: 4,
                hit_latency: 32,
            },
            tex_cache: CacheGeometry {
                size_bytes: 48 * 1024,
                line_bytes: 128,
                ways: 4,
                hit_latency: 96,
            },
            tex_filter_rate_fp32: 1.0,
            tex_filter_rate_fp16: 2.0,
            tex_hit_latency: 96,
            overlap_efficiency: 0.7,
            launch_overhead_us: 8.0,
            max_texture_layers: 2048,
            max_texture_dim: 32768,
        }
    }

    /// NVIDIA RTX 2080 Ti: 68 Turing SMs @ 1.545 GHz, 616 GB/s GDDR6,
    /// 5.5 MB L2.
    pub fn rtx2080ti() -> Self {
        DeviceConfig {
            name: "RTX-2080Ti".into(),
            num_sms: 68,
            warp_size: 32,
            max_warps_per_sm: 32,
            core_clock_ghz: 1.545,
            fp32_lanes_per_sm: 64,
            alu_lanes_per_sm: 64,
            dram_bandwidth_gbps: 616.0,
            dram_latency: 450,
            l2: CacheGeometry {
                size_bytes: 4 * 1024 * 1024,
                line_bytes: 128,
                ways: 16,
                hit_latency: 190,
            },
            l1: CacheGeometry {
                size_bytes: 64 * 1024,
                line_bytes: 128,
                ways: 4,
                hit_latency: 28,
            },
            tex_cache: CacheGeometry {
                size_bytes: 64 * 1024,
                line_bytes: 128,
                ways: 4,
                hit_latency: 80,
            },
            tex_filter_rate_fp32: 4.0,
            tex_filter_rate_fp16: 8.0,
            tex_hit_latency: 80,
            overlap_efficiency: 0.75,
            launch_overhead_us: 4.0,
            max_texture_layers: 2048,
            max_texture_dim: 32768,
        }
    }

    /// Looks up a built-in preset by its canonical request name (the names
    /// `core::serve` uses to address devices in cache keys). Returns `None`
    /// for unknown names so callers can produce a typed error.
    pub fn preset(name: &str) -> Option<DeviceConfig> {
        match name {
            "xavier-agx" => Some(DeviceConfig::xavier_agx()),
            "rtx2080ti" => Some(DeviceConfig::rtx2080ti()),
            _ => None,
        }
    }

    /// The canonical names accepted by [`DeviceConfig::preset`].
    pub fn preset_names() -> [&'static str; 2] {
        ["xavier-agx", "rtx2080ti"]
    }

    /// Validates the whole configuration: positive counts and clocks, a
    /// sane overlap fraction, realizable cache geometries, positive texture
    /// limits. Launch paths call this before simulating so a hand-edited or
    /// JSON-loaded config fails with a typed [`DefconError::Constraint`]
    /// instead of a mid-simulation panic.
    ///
    /// Fault point `device.cache_config` injects a constraint violation
    /// here (modelling an invalid deployed config) for degradation tests.
    pub fn validate(&self) -> Result<(), DefconError> {
        if fault::fires("device.cache_config") {
            return Err(DefconError::Constraint {
                what: "cache-config".to_string(),
                detail: format!("injected fault: device.cache_config ({})", self.name),
            });
        }
        let constraint = |detail: String| DefconError::Constraint {
            what: "device-config".to_string(),
            detail: format!("{}: {detail}", self.name),
        };
        if self.num_sms == 0 || self.warp_size == 0 || self.max_warps_per_sm == 0 {
            return Err(constraint(format!(
                "SM/warp counts must be positive (sms={}, warp_size={}, max_warps={})",
                self.num_sms, self.warp_size, self.max_warps_per_sm
            )));
        }
        if self.fp32_lanes_per_sm == 0 || self.alu_lanes_per_sm == 0 {
            return Err(constraint("lane counts must be positive".to_string()));
        }
        for (name, v) in [
            ("core_clock_ghz", self.core_clock_ghz),
            ("dram_bandwidth_gbps", self.dram_bandwidth_gbps),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(constraint(format!(
                    "{name} must be positive and finite (got {v})"
                )));
            }
        }
        if !(self.overlap_efficiency.is_finite() && (0.0..=1.0).contains(&self.overlap_efficiency))
        {
            return Err(constraint(format!(
                "overlap_efficiency must be in [0, 1] (got {})",
                self.overlap_efficiency
            )));
        }
        self.l2.validate("l2")?;
        self.l1.validate("l1")?;
        self.tex_cache.validate("tex_cache")?;
        if self.max_texture_layers == 0 || self.max_texture_dim == 0 {
            return Err(constraint("texture limits must be positive".to_string()));
        }
        Ok(())
    }

    /// The layered-texture limits `(max layers, max extent)` every texture
    /// bound on this device must fit (§III-B).
    pub fn texture_limits(&self) -> (usize, usize) {
        (self.max_texture_layers, self.max_texture_dim)
    }

    /// Peak FP32 throughput in GFLOP/s (2 flops per FMA).
    pub fn peak_gflops(&self) -> f64 {
        2.0 * self.num_sms as f64 * self.fp32_lanes_per_sm as f64 * self.core_clock_ghz
    }

    /// DRAM bytes deliverable per core cycle (whole chip).
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbps / self.core_clock_ghz
    }

    /// Converts core cycles to milliseconds.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.core_clock_ghz * 1e9) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_peak_flops_matches_spec() {
        // 512 CUDA cores * 2 * 1.377 GHz ≈ 1.41 TFLOP/s
        let x = DeviceConfig::xavier_agx();
        assert!(
            (x.peak_gflops() - 1410.0).abs() < 10.0,
            "{}",
            x.peak_gflops()
        );
    }

    #[test]
    fn presets_resolve_by_canonical_name() {
        let xavier = DeviceConfig::preset("xavier-agx").expect("known preset");
        assert_eq!(xavier.name, "Jetson-AGX-Xavier");
        let turing = DeviceConfig::preset("rtx2080ti").expect("known preset");
        assert_eq!(turing.name, "RTX-2080Ti");
        assert!(DeviceConfig::preset("tpu-v9").is_none());
        for name in DeviceConfig::preset_names() {
            assert!(DeviceConfig::preset(name).is_some(), "{name}");
        }
    }

    #[test]
    fn turing_is_an_order_of_magnitude_bigger() {
        let x = DeviceConfig::xavier_agx();
        let t = DeviceConfig::rtx2080ti();
        assert!(t.peak_gflops() / x.peak_gflops() > 8.0);
        assert!(t.dram_bandwidth_gbps / x.dram_bandwidth_gbps > 4.0);
    }

    #[test]
    fn cache_geometry_sets() {
        let g = CacheGeometry {
            size_bytes: 64 * 1024,
            line_bytes: 128,
            ways: 4,
            hit_latency: 1,
        };
        assert_eq!(g.num_sets(), 128);
    }

    #[test]
    fn cycles_to_ms_round_trip() {
        let x = DeviceConfig::xavier_agx();
        let ms = x.cycles_to_ms(1.377e9);
        assert!((ms - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn device_json_round_trip() {
        for dev in [DeviceConfig::xavier_agx(), DeviceConfig::rtx2080ti()] {
            let text = dev.to_json().to_string();
            let back = DeviceConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
            // Serialization is deterministic: round-tripping reproduces the
            // exact byte string.
            assert_eq!(back.to_json().to_string(), text);
            assert_eq!(back.name, dev.name);
            assert_eq!(back.l2.size_bytes, dev.l2.size_bytes);
            assert_eq!(back.core_clock_ghz, dev.core_clock_ghz);
        }
    }

    #[test]
    fn stock_configs_validate() {
        let _quiet = defcon_support::fault::quiesce();
        DeviceConfig::xavier_agx().validate().unwrap();
        DeviceConfig::rtx2080ti().validate().unwrap();
    }

    #[test]
    fn bad_cache_geometry_is_a_typed_constraint_error() {
        let _quiet = defcon_support::fault::quiesce();
        let mut dev = DeviceConfig::xavier_agx();
        dev.l2.size_bytes = 64; // smaller than one line × ways
        let err = dev.validate().unwrap_err();
        assert!(matches!(err, DefconError::Constraint { .. }));
        assert!(err.is_degradable());
        assert!(err.to_string().contains("l2"));
    }

    #[test]
    fn bad_overlap_efficiency_rejected() {
        let _quiet = defcon_support::fault::quiesce();
        let mut dev = DeviceConfig::xavier_agx();
        dev.overlap_efficiency = 1.5;
        assert!(dev.validate().is_err());
        dev.overlap_efficiency = f64::NAN;
        assert!(dev.validate().is_err());
    }

    #[test]
    fn injected_cache_config_fault_surfaces_as_constraint() {
        use defcon_support::fault::{FaultPlan, Schedule};
        let dev = DeviceConfig::xavier_agx();
        dev.validate().unwrap();
        let _g = fault::arm(FaultPlan::new(2).point("device.cache_config", Schedule::Always));
        let err = dev.validate().unwrap_err();
        assert!(matches!(err, DefconError::Constraint { .. }));
        assert!(err.to_string().contains("injected"));
    }

    #[test]
    fn texture_limits_match_paper() {
        let x = DeviceConfig::xavier_agx();
        assert_eq!(x.max_texture_layers, 2048);
        assert_eq!(x.max_texture_dim, 32768);
    }
}
