//! Run the gradient-based interval search (paper Algorithm 1) on a
//! searchable detector supernet and report the discovered DCN placement.
//!
//! ```sh
//! cargo run --release --example interval_search
//! ```
//!
//! Set `DEFCON_FAST=1` for a quick smoke run.

use defcon::core::lut::LatencyLut;
use defcon::models::trainer::{prepare, DetectorSuperNet};
use defcon::prelude::*;
use defcon_support::error::DefconError;

fn main() -> Result<(), DefconError> {
    let fast = defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::FAST));
    let dataset = DeformedShapesConfig {
        deformation: 1.0,
        ..Default::default()
    };

    // 1. Build the dual-path supernet: every backbone 3×3 is searchable.
    let mut store = ParamStore::new();
    let backbone = BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Searchable));
    let data = prepare(&dataset, if fast { 32 } else { 160 }, 1);
    let mut net = DetectorSuperNet::new(&mut store, backbone, data, 8);

    // 2. Collect the on-device latency LUT on the simulated Xavier for the
    //    operator we intend to deploy (tex2D++ + lightweight offsets).
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let keys = net.detector.backbone.all_latency_keys();
    let lut = LatencyLut::build(
        &gpu,
        &keys,
        SamplingMethod::Tex2dPlusPlus,
        OffsetPredictorKind::Lightweight,
        OpFamily::DcnV1,
    );
    println!(
        "latency LUT ({} keys, device {}):",
        lut.len(),
        gpu.config().name
    );
    for k in &keys {
        println!("  {k:?} -> DCN overhead {:.4} ms", lut.dcn_overhead_ms(k)?);
    }

    // 3. Run Algorithm 1 with a latency budget.
    let cfg = SearchConfig {
        search_epochs: if fast { 2 } else { 6 },
        finetune_epochs: if fast { 1 } else { 4 },
        iters_per_epoch: if fast { 4 } else { 20 },
        beta: 0.5,
        target_latency_ms: 0.05,
        lr: 0.02,
        ..Default::default()
    };
    let outcome =
        IntervalSearch::new(cfg, lut).run(&mut net, &mut store, &RobustConfig::default())?;

    println!("\nsearched layout : {}", net.detector.backbone.layout());
    println!("#DCN            : {}", outcome.num_dcn());
    println!(
        "DCN overhead    : {:.4} ms (target 0.05 ms)",
        outcome.dcn_overhead_ms
    );
    println!("loss trajectory : {:?}", outcome.loss_history);
    Ok(())
}
