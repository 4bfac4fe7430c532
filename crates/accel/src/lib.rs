//! # defcon-accel
//!
//! A deterministic tiled dataflow/systolic accelerator model for the
//! deformable convolution operator — the "third column" next to the
//! paper's software and GPU-texture kernels, in the spirit of the DCN
//! accelerator literature (algorithm–hardware co-design with bounded
//! offsets; energy-efficient tiled DCN engines).
//!
//! The machine: a `pe_rows × pe_cols` MAC array fed by explicit on-chip
//! **input**, **weight**, and **output** buffers, driven by the
//! double-buffered tile scheduler in [`scheduler`]. The paper's `P = 7`
//! offset clamp bounds each output tile's input **halo**, so halo
//! staging and reuse are modeled analytically per tile (no per-lane
//! simulation) — which is exactly what makes the model cheap, integer,
//! and byte-deterministic.
//!
//! Two faces, mirroring `defcon-gpusim`:
//!
//! * **Timing** — [`Accel`] implements the [`Backend`] trait: analytic
//!   cycle totals rendered as the same [`KernelReport`] currency the
//!   LUT, serving, and golden layers consume.
//! * **Numeric** — [`Backend::execute`] runs the operator tile by tile
//!   through the *same* per-element sampling pipeline as the GPU path
//!   and a per-tile GEMM whose per-element reduction order equals the
//!   full-plane GEMM's, so accel outputs are **byte-identical** to
//!   gpusim outputs for every op family and kernel path (the
//!   cross-backend conformance suite pins this).
//!
//! Degradation: any configuration the buffers cannot hold — or an armed
//! `accel.tile` fault — surfaces as a degradable [`DefconError`], and
//! [`launch_with_gpu_fallback`] steps over to the gpusim fallback
//! ladder, recording the transition like any other rung skip.

pub mod scheduler;

use defcon_gpusim::{Gpu, KernelReport};
use defcon_kernels::backend::{Backend, BackendKind};
use defcon_kernels::im2col::{im2col_deform_numeric_tile, Im2colDeformKernel};
use defcon_kernels::op::{DeformConvOp, DeformFallback};
use defcon_kernels::{DeformLayerShape, TileConfig};
use defcon_support::error::DefconError;
use defcon_support::json::Json;
use defcon_support::{fault, obs};
use defcon_tensor::{gemm, Tensor};

pub use scheduler::{CycleModel, Occupancy, Tile, TileCycles, TilePlan, Totals};

/// The offset bound the halo model assumes — the paper's `P = 7` clamp.
pub const OFFSET_BOUND: usize = 7;

/// One accelerator configuration: PE-array geometry, clock, on-chip
/// buffer capacities, DRAM bandwidth, and the offset bound the halo
/// model assumes.
#[derive(Clone, Debug, PartialEq)]
pub struct AccelConfig {
    /// Model name, stamped into reports.
    pub name: String,
    /// PE-array rows (output-channel dimension).
    pub pe_rows: usize,
    /// PE-array columns (output-pixel dimension; also the interpolator
    /// lane count of the sampling front end).
    pub pe_cols: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// On-chip input (halo) buffer capacity in bytes.
    pub input_buffer_bytes: usize,
    /// On-chip weight buffer capacity in bytes.
    pub weight_buffer_bytes: usize,
    /// On-chip output buffer capacity in bytes.
    pub output_buffer_bytes: usize,
    /// DRAM bandwidth in GB/s.
    pub dram_gbytes_per_s: f64,
    /// Offset bound `P` (pixels) the tile halos assume.
    pub offset_bound: usize,
    /// Per-launch host overhead in microseconds.
    pub launch_overhead_us: f64,
}

impl AccelConfig {
    /// The edge-class preset: a 16×16 array at 1 GHz with LPDDR-class
    /// bandwidth — the natural sparring partner for the Xavier preset.
    pub fn edge() -> AccelConfig {
        AccelConfig {
            name: "DCN-Accel-Edge".into(),
            pe_rows: 16,
            pe_cols: 16,
            clock_ghz: 1.0,
            input_buffer_bytes: 2 * 1024 * 1024,
            weight_buffer_bytes: 1024 * 1024,
            output_buffer_bytes: 512 * 1024,
            dram_gbytes_per_s: 25.6,
            offset_bound: OFFSET_BOUND,
            launch_overhead_us: 10.0,
        }
    }

    /// The datacenter-class preset: a 32×32 array at 1.2 GHz with HBM-
    /// class bandwidth — the sparring partner for the 2080 Ti preset.
    pub fn datacenter() -> AccelConfig {
        AccelConfig {
            name: "DCN-Accel-DC".into(),
            pe_rows: 32,
            pe_cols: 32,
            clock_ghz: 1.2,
            input_buffer_bytes: 8 * 1024 * 1024,
            weight_buffer_bytes: 4 * 1024 * 1024,
            output_buffer_bytes: 2 * 1024 * 1024,
            dram_gbytes_per_s: 100.0,
            offset_bound: OFFSET_BOUND,
            launch_overhead_us: 5.0,
        }
    }

    /// The accelerator paired with a serving device's canonical name
    /// (`"xavier-agx"` / `"rtx2080ti"`), matching the device's deployment
    /// class. `None` for unknown names.
    pub fn for_serve_device(canonical: &str) -> Option<AccelConfig> {
        match canonical {
            "xavier-agx" => Some(AccelConfig::edge()),
            "rtx2080ti" => Some(AccelConfig::datacenter()),
            _ => None,
        }
    }

    /// Validates the configuration's structural invariants.
    pub fn validate(&self) -> Result<(), DefconError> {
        let positive = [
            ("pe_rows", self.pe_rows),
            ("pe_cols", self.pe_cols),
            ("input_buffer_bytes", self.input_buffer_bytes),
            ("weight_buffer_bytes", self.weight_buffer_bytes),
            ("output_buffer_bytes", self.output_buffer_bytes),
        ];
        for (field, v) in positive {
            if v == 0 {
                return Err(DefconError::Constraint {
                    what: "accel-config".into(),
                    detail: format!("{field} must be positive"),
                });
            }
        }
        for (field, v) in [
            ("clock_ghz", self.clock_ghz),
            ("dram_gbytes_per_s", self.dram_gbytes_per_s),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(DefconError::Constraint {
                    what: "accel-config".into(),
                    detail: format!("{field} must be finite and positive"),
                });
            }
        }
        Ok(())
    }

    /// DRAM bytes per core cycle as a Q16 fixed-point constant — the only
    /// place a float touches the cycle model, evaluated once.
    pub fn bytes_per_cycle_q16(&self) -> u64 {
        ((self.dram_gbytes_per_s / self.clock_ghz) * 65536.0)
            .round()
            .max(1.0) as u64
    }

    /// Converts core cycles to milliseconds (excluding launch overhead).
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e6)
    }
}

/// The accelerator backend: an [`AccelConfig`] plus the scheduling and
/// reporting logic that makes it a [`Backend`].
#[derive(Clone, Debug)]
pub struct Accel {
    config: AccelConfig,
}

impl Accel {
    /// A backend over `config`.
    pub fn new(config: AccelConfig) -> Accel {
        Accel { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The tile plan `op` schedules under this configuration.
    pub fn plan(&self, op: &DeformConvOp) -> TilePlan {
        TilePlan::new(op.shape, op.tile, self.config.offset_bound)
    }

    /// The cycle/occupancy model of `op` on this configuration.
    pub fn cycle_model(&self, op: &DeformConvOp) -> CycleModel {
        CycleModel::new(&self.config, op)
    }

    /// Schedule totals for the deformable stage of `op`, after the
    /// admission checks: a valid layer shape and accelerator config, the
    /// `accel.tile` fault point, and buffer occupancy. Timing is analytic:
    /// it depends on shapes and the method's interpolation precision,
    /// never on tensor values.
    pub fn deform_totals(&self, op: &DeformConvOp) -> Result<Totals, DefconError> {
        op.shape.validate()?;
        self.config.validate()?;
        // The injectable tile-scheduler fault: admission-time, so every
        // launch path (deform, total, autotune objective) degrades through
        // the same gate.
        if fault::fires("accel.tile") {
            return Err(DefconError::Constraint {
                what: "accel-tile".into(),
                detail: "injected tile-scheduler fault".into(),
            });
        }
        let plan = self.plan(op);
        let model = self.cycle_model(op);
        model.check_occupancy(&plan)?;
        Ok(model.totals(&plan))
    }

    /// Renders schedule totals as a launch report.
    fn report(&self, label: String, totals: &Totals) -> KernelReport {
        let mut counters = defcon_gpusim::Counters::default();
        counters.flops = 2 * totals.macs + 6 * totals.samples;
        counters.alu_ops = totals.samples;
        counters.dram_read_bytes = totals.load_bytes;
        counters.dram_write_bytes = totals.store_bytes;
        KernelReport {
            device: self.config.name.clone(),
            kernel: label,
            time_ms: self.config.cycles_to_ms(totals.total_cycles)
                + self.config.launch_overhead_us / 1000.0,
            cycles: totals.total_cycles as f64,
            grid_blocks: totals.tiles as usize,
            simulated_blocks: totals.tiles as usize,
            counters,
        }
    }

    fn deform_label(&self, op: &DeformConvOp) -> String {
        format!(
            "accel_deform_{}{}",
            op.method.label_stem(),
            op.family.label_suffix()
        )
    }

    /// A plain dense convolution pass on the array (weight-streaming,
    /// halo-free tiles): the offset predictor and the LUT's rigid-conv
    /// baseline both use this model.
    fn conv_totals(&self, shape: &DeformLayerShape, c_out: usize) -> Totals {
        let (oh, ow) = shape.out_hw();
        let pe = (self.config.pe_rows * self.config.pe_cols) as u64;
        let bpc = self.config.bytes_per_cycle_q16();
        let dram = |bytes: u64| (bytes << 16).div_ceil(bpc);
        let kk = (shape.kernel * shape.kernel) as u64;
        let pixels = (shape.n * oh * ow) as u64;
        let macs = (c_out * shape.c_in) as u64 * kk * pixels;
        let load_bytes = (shape.n * shape.c_in * shape.h * shape.w * 4) as u64
            + (c_out * shape.c_in * 4) as u64 * kk;
        let store_bytes = c_out as u64 * pixels * 4;
        let (load, compute, store) = (dram(load_bytes), macs.div_ceil(pe), dram(store_bytes));
        Totals {
            tiles: 1,
            steady_cycles: load.max(compute).max(store),
            fill_cycles: load,
            drain_cycles: store,
            weight_cycles: 0,
            total_cycles: load.max(compute).max(store) + load + store,
            load_bytes,
            store_bytes,
            halo_bytes: 0,
            macs,
            samples: 0,
        }
    }

    /// The offset-predictor launch report (the joint `conv_offset_mask`
    /// widening for v2/v3, same as the GPU backend's predictor).
    fn offset_report(&self, op: &DeformConvOp) -> KernelReport {
        let s = op.shape;
        let pred_channels = s.offset_channels() + op.family.modulation_channels(&s);
        let totals = self.conv_totals(&s, pred_channels);
        self.report("accel_offset_conv".into(), &totals)
    }

    /// The `TileConfig` candidates of the standard search space that this
    /// configuration can actually buffer for `op` — the accel tile space
    /// the autotuner searches.
    pub fn tile_space(&self, op: &DeformConvOp) -> Vec<TileConfig> {
        TileConfig::search_space()
            .into_iter()
            .filter(|&tile| {
                let candidate = DeformConvOp { tile, ..op.clone() };
                let plan = self.plan(&candidate);
                self.cycle_model(&candidate).check_occupancy(&plan).is_ok()
            })
            .collect()
    }

    /// An autotuner objective over the accel tile space: deformable-stage
    /// cycles for `op` at the candidate tile (`+inf` when the buffers
    /// cannot hold the candidate, so infeasible tiles lose any search).
    pub fn tile_objective<'a>(
        &'a self,
        op: &'a DeformConvOp,
    ) -> impl Fn(TileConfig) -> f64 + Sync + 'a {
        move |tile| {
            let candidate = DeformConvOp { tile, ..op.clone() };
            match self.deform_totals(&candidate) {
                Ok(totals) => totals.total_cycles as f64,
                Err(_) => f64::INFINITY,
            }
        }
    }
}

impl Backend for Accel {
    fn backend_name(&self) -> &'static str {
        BackendKind::Accel.name()
    }

    fn device_name(&self) -> String {
        self.config.name.clone()
    }

    fn launch_deform(
        &self,
        op: &DeformConvOp,
        _offsets: &Tensor,
    ) -> Result<DeformFallback, DefconError> {
        // Admission (validation, fault point, buffer occupancy) happens
        // before the span opens: a declined launch leaves no launch span.
        let totals = self.deform_totals(op)?;
        let span = obs::span_with("accel.launch", || {
            vec![
                ("method", Json::str(op.method.name())),
                ("family", Json::str(op.family.name())),
            ]
        });
        span.record("tiles", Json::from(totals.tiles));
        span.record("cycles", Json::from(totals.total_cycles));
        obs::counter_add("accel.tiles", totals.tiles);
        obs::counter_add("accel.halo_bytes", totals.halo_bytes);
        obs::counter_add("accel.refetch_bytes", self.plan(op).refetch_bytes());
        Ok(DeformFallback {
            reports: vec![self.report(self.deform_label(op), &totals)],
            method: op.method,
            degradations: Vec::new(),
        })
    }

    fn launch_total(
        &self,
        op: &DeformConvOp,
        offsets: &Tensor,
    ) -> Result<(f64, Vec<KernelReport>), DefconError> {
        let mut reports = vec![self.offset_report(op)];
        reports.extend(self.launch_deform(op, offsets)?.reports);
        let total = reports.iter().map(|r| r.time_ms).sum();
        Ok((total, reports))
    }

    /// Tile-by-tile numeric execution. Byte-identical to the GPU
    /// backend's full-plane execution: both run
    /// [`im2col_deform_numeric_tile`] — the GPU over the one-tile window of
    /// the whole plane, the accelerator over its tile plan — and the
    /// blocked GEMM's per-output-element reduction order is independent of
    /// which columns are present (see `defcon_tensor::gemm`), so scattering
    /// per-tile GEMM results reproduces the full-plane result bit for bit.
    fn execute(&self, op: &DeformConvOp, x: &Tensor, offsets: &Tensor, weight: &Tensor) -> Tensor {
        let s = op.shape;
        let (oh, ow) = s.out_hw();
        // The accelerator has no texture unit: the sampler pipeline is
        // modeled directly, so there is no layer/dimension limit.
        let kernel = Im2colDeformKernel::new(op, offsets, (usize::MAX, usize::MAX))
            .expect("unlimited texture layers cannot be exceeded");
        let krows = s.c_in * s.kernel * s.kernel;
        let plan = self.plan(op);
        let mut out = Tensor::zeros(&[s.n, s.c_out, oh, ow]);
        let mut dst_tile = vec![0.0f32; s.c_out * op.tile.h * op.tile.w];
        for t in plan.tiles() {
            let cols = im2col_deform_numeric_tile(&kernel, x, t.n, t.oy0, t.ox0, t.th, t.tw);
            let pixels = t.pixels();
            let dst = &mut dst_tile[..s.c_out * pixels];
            dst.fill(0.0);
            gemm::gemm(weight.data(), &cols, dst, s.c_out, krows, pixels);
            let data = out.data_mut();
            for co in 0..s.c_out {
                for ty in 0..t.th {
                    let src = &dst[(co * t.th + ty) * t.tw..(co * t.th + ty + 1) * t.tw];
                    let base = ((t.n * s.c_out + co) * oh + t.oy0 + ty) * ow + t.ox0;
                    data[base..base + t.tw].copy_from_slice(src);
                }
            }
        }
        out
    }
}

/// Runs the deformable stage on `accel`, stepping over to the gpusim
/// fallback ladder when the accelerator declines (buffer constraints or
/// an armed `accel.tile` fault). The accel rung's skip is recorded as a
/// `kernels.fallback` event and a leading degradation line, exactly like
/// a texture-rung skip; non-degradable errors propagate.
pub fn launch_with_gpu_fallback(
    accel: &Accel,
    gpu: &Gpu,
    op: &DeformConvOp,
    offsets: &Tensor,
) -> Result<DeformFallback, DefconError> {
    match accel.launch_deform(op, offsets) {
        Ok(fb) => Ok(fb),
        Err(e) if e.is_degradable() => {
            obs::event_with("kernels.fallback", || {
                vec![
                    ("from", Json::str("accel")),
                    ("error", Json::str(e.to_string())),
                ]
            });
            let mut fb = op.simulate_deform_with_fallback(gpu, offsets)?;
            fb.degradations.insert(0, format!("accel unavailable: {e}"));
            Ok(fb)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::DeviceConfig;
    use defcon_kernels::op::{synthetic_offsets, SamplingMethod};

    fn small_op(method: SamplingMethod) -> DeformConvOp {
        DeformConvOp {
            method,
            ..DeformConvOp::baseline(DeformLayerShape::same3x3(4, 6, 12, 12))
        }
    }

    #[test]
    fn presets_validate_and_pair_with_serve_devices() {
        AccelConfig::edge().validate().unwrap();
        AccelConfig::datacenter().validate().unwrap();
        assert_eq!(
            AccelConfig::for_serve_device("xavier-agx").map(|c| c.name),
            Some("DCN-Accel-Edge".to_string())
        );
        assert_eq!(
            AccelConfig::for_serve_device("rtx2080ti").map(|c| c.name),
            Some("DCN-Accel-DC".to_string())
        );
        assert_eq!(AccelConfig::for_serve_device("cpu"), None);
    }

    #[test]
    fn launch_reports_are_deterministic_and_labeled() {
        let accel = Accel::new(AccelConfig::edge());
        let op = small_op(SamplingMethod::Tex2dPlusPlus);
        let off = synthetic_offsets(&op.shape, 2.0, 3);
        let a = accel.launch_deform(&op, &off).unwrap();
        let b = accel.launch_deform(&op, &off).unwrap();
        assert_eq!(a.reports[0], b.reports[0], "analytic model must be pure");
        assert_eq!(a.reports[0].kernel, "accel_deform_tex2dpp");
        assert_eq!(a.reports[0].device, "DCN-Accel-Edge");
        assert!(a.reports[0].time_ms > 0.0 && a.reports[0].cycles > 0.0);
        assert_eq!(
            a.reports[0].grid_blocks,
            accel.plan(&op).num_tiles(),
            "one grid block per scheduled tile"
        );
    }

    #[test]
    fn interpolation_precision_orders_the_methods() {
        let accel = Accel::new(AccelConfig::edge());
        let off = synthetic_offsets(&small_op(SamplingMethod::Tex2d).shape, 2.0, 4);
        let ms = |m| accel.launch_deform(&small_op(m), &off).unwrap().reports[0].time_ms;
        let (sw, t2, tpp) = (
            ms(SamplingMethod::SoftwareBilinear),
            ms(SamplingMethod::Tex2d),
            ms(SamplingMethod::Tex2dPlusPlus),
        );
        assert!(
            sw >= t2 && t2 >= tpp,
            "sampling cost must order methods: {sw} {t2} {tpp}"
        );
    }

    #[test]
    fn oversized_tiles_degrade_and_fall_back_to_the_gpu() {
        // 64×64 tiles on a wide layer blow the edge input buffer.
        let shape = DeformLayerShape::same3x3(256, 16, 96, 96);
        let op = DeformConvOp {
            tile: TileConfig { h: 64, w: 64 },
            method: SamplingMethod::Tex2dPlusPlus,
            ..DeformConvOp::baseline(shape)
        };
        let accel = Accel::new(AccelConfig::edge());
        let e = accel.deform_totals(&op).unwrap_err();
        assert!(e.is_degradable(), "buffer overflow must be degradable");
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let off = synthetic_offsets(&shape, 2.0, 5);
        let fb = launch_with_gpu_fallback(&accel, &gpu, &op, &off).unwrap();
        assert_eq!(fb.method, SamplingMethod::Tex2dPlusPlus);
        assert!(fb.degradations[0].starts_with("accel unavailable:"));
    }

    #[test]
    fn tile_space_is_nonempty_and_feasible() {
        let accel = Accel::new(AccelConfig::edge());
        let op = small_op(SamplingMethod::Tex2dPlusPlus);
        let space = accel.tile_space(&op);
        assert!(!space.is_empty());
        let objective = accel.tile_objective(&op);
        for &tile in &space {
            assert!(
                objective(tile).is_finite(),
                "feasible tile {tile} scored inf"
            );
        }
    }

    /// The accel shares gpusim's numeric tile, and with it the tensor
    /// checks: a texture method no longer binds `x`, so nothing else would
    /// catch a larger input read at the wrong positions.
    #[test]
    #[should_panic(expected = "expected [1, 4, 12, 12], got [1, 4, 12, 13]")]
    fn execute_rejects_a_mismatched_input() {
        let op = small_op(SamplingMethod::Tex2d);
        let off = synthetic_offsets(&op.shape, 2.0, 7);
        let (x, w) = (Tensor::zeros(&[1, 4, 12, 13]), Tensor::zeros(&[6, 4, 3, 3]));
        Accel::new(AccelConfig::edge()).execute(&op, &x, &off, &w);
    }

    #[test]
    fn launch_total_includes_the_offset_predictor() {
        let accel = Accel::new(AccelConfig::edge());
        let op = small_op(SamplingMethod::Tex2d);
        let off = synthetic_offsets(&op.shape, 2.0, 6);
        let (total, reports) = accel.launch_total(&op, &off).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].kernel, "accel_offset_conv");
        assert!((total - reports.iter().map(|r| r.time_ms).sum::<f64>()).abs() < 1e-12);
    }
}
