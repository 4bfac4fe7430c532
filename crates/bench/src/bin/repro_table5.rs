//! Reproduces **Table V**: the offsets ablation on the searched
//! architecture — boundary only, boundary + regularized training, and
//! boundary + integer rounding.
//!
//! Paper findings reproduced: regularized training is accuracy-neutral
//! relative to plain bounding, while rounding the sampling coordinates to
//! integers loses accuracy ("a significant loss of accuracy … without
//! significant performance benefits").
//!
//! `DEFCON_FAST=1` shrinks the training budget.

use defcon_bench::{f2, Table};
use defcon_models::backbone::BackboneConfig;
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
    println!("# Table V — offsets ablation (interval-3 DCN placement)\n");

    let mut table = Table::new(&["Boundary", "Regularization", "Round", "Box mAP", "Mask mAP"]);
    let check = |b: bool| if b { "x".to_string() } else { String::new() };
    for (reg, round) in [(false, false), (true, false), (false, true)] {
        let mut bb = BackboneConfig::mini(48, BackboneConfig::interval_slots(5, 3));
        bb.lightweight_offsets = false;
        bb.offset_transform = if round {
            OffsetTransform::BoundedRounded(7.0)
        } else {
            OffsetTransform::Bounded(7.0)
        };
        let mut store = ParamStore::new();
        let mut det = YolactLite::new(&mut store, bb);
        let offset_reg = if reg { 0.01 } else { 0.0 };
        train_detector(
            &mut det,
            &mut store,
            &cfg,
            offset_reg,
            &RobustConfig::default(),
        )?;
        let val = prepare(&cfg.dataset, cfg.val_size, cfg.seed ^ 0xFFFF_0000).samples;
        let map = evaluate_detector(&mut det, &store, &val, 0.05);
        table.row(&[
            check(true),
            check(reg),
            check(round),
            f2(map.box_map),
            f2(map.mask_map),
        ]);
    }
    table.print();
    Ok(())
}
