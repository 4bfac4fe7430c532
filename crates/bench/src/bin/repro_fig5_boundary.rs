//! Reproduces **Fig. 5**: determining the bounded-deformation limit `P`.
//!
//! Trains one deformable detector, then evaluates it with the learned
//! offsets clamped to `P ∈ {3, 5, 7, 9, ∞}` (the lowest boundary is the
//! kernel size, per the paper). Paper finding: accuracy saturates at
//! `P = 7`; tighter bounds clip useful deformation, looser bounds buy
//! nothing.
//!
//! `DEFCON_FAST=1` shrinks the training budget.

use defcon_bench::{f2, Table};
use defcon_models::backbone::{BackboneConfig, SlotKind};
use defcon_models::dataset::DeformedShapesConfig;
use defcon_models::trainer::{evaluate_detector, prepare, train_detector, TrainConfig};
use defcon_models::YolactLite;
use defcon_nn::graph::ParamStore;
use defcon_nn::optim::RobustConfig;
use defcon_support::error::DefconError;
use defcon_tensor::sample::OffsetTransform;

fn main() -> Result<(), DefconError> {
    // Must be first and live for the whole run: the guard writes the
    // DEFCON_TRACE Chrome trace when it drops.
    let _obs = defcon_bench::obs_scope();
    let fast = defcon_bench::fast_mode();
    let dataset = DeformedShapesConfig {
        deformation: 1.0,
        ..Default::default()
    };
    let cfg = TrainConfig {
        epochs: if fast { 3 } else { 14 },
        batch_size: 8,
        lr: 0.02,
        train_size: if fast { 48 } else { 320 },
        val_size: if fast { 24 } else { 96 },
        dataset,
        seed: 0x5EED,
    };

    // Train once with unbounded offsets (dense DCN placement).
    let mut bb = BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Deformable));
    bb.lightweight_offsets = false;
    let mut store = ParamStore::new();
    let mut det = YolactLite::new(&mut store, bb);
    train_detector(&mut det, &mut store, &cfg, 0.0, &RobustConfig::default())?;
    let val = prepare(&cfg.dataset, cfg.val_size, cfg.seed ^ 0xFFFF_0000).samples;

    println!("# Fig. 5 — accuracy vs. deformation bound P (evaluated with the offsets of one trained model clamped)\n");
    let mut table = Table::new(&["P", "Box mAP", "Mask mAP", "Mask AP50"]);
    let bounds: [(String, OffsetTransform); 5] = [
        ("3".into(), OffsetTransform::Bounded(3.0)),
        ("5".into(), OffsetTransform::Bounded(5.0)),
        ("7".into(), OffsetTransform::Bounded(7.0)),
        ("9".into(), OffsetTransform::Bounded(9.0)),
        ("inf".into(), OffsetTransform::Identity),
    ];
    for (name, tr) in bounds {
        det.backbone.set_offset_transform(tr);
        let map = evaluate_detector(&mut det, &store, &val, 0.05);
        table.row(&[name, f2(map.box_map), f2(map.mask_map), f2(map.mask_ap50)]);
    }
    table.print();
    println!("\n(the paper picks P = 7: bounds ≥ 7 are accuracy-neutral)");
    Ok(())
}
