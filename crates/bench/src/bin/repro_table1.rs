//! Reproduces **Table I**: instance-segmentation accuracy vs. number and
//! placement of deformable layers, on the synthetic deformed-shapes dataset
//! (the COCO substitute — see DESIGN.md §2).
//!
//! Paper reference (R101): YOLACT (0 DCN) ≪ YOLACT++ (30 DCN) ≈ YOLACT++
//! interval-3 (10 DCN) ≤ Ours (searched, 8 DCN). We reproduce the ordering:
//! deformable placements beat the rigid baseline, and the searched
//! placement matches or beats hand placement with fewer DCNs.
//!
//! Budget: set `DEFCON_FAST=1` for a quick smoke run (lower accuracy,
//! ~1 min); the default takes several minutes per row on one core.

use defcon_bench::{f2, Table};
use defcon_core::lut::LatencyLut;
use defcon_core::search::{IntervalSearch, SearchConfig};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_kernels::op::{OffsetPredictorKind, OpFamily, SamplingMethod};
use defcon_models::backbone::{BackboneConfig, SlotKind};
use defcon_models::dataset::DeformedShapesConfig;
use defcon_models::trainer::{
    evaluate_detector, prepare, train_and_eval, DetectorSuperNet, TrainConfig,
};
use defcon_nn::graph::ParamStore;
use defcon_nn::optim::RobustConfig;
use defcon_support::error::DefconError;

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
    println!("# Table I — accuracy vs. DCN count/placement on deformed-shapes (backbone: mini, 5 slots)\n");

    let mut table = Table::new(&["Method", "# of DCNs", "Box mAP", "Mask mAP", "Mask AP50"]);
    let run = |name: &str, slots: Vec<SlotKind>, table: &mut Table| -> Result<(), DefconError> {
        let mut bb = BackboneConfig::mini(48, slots);
        bb.lightweight_offsets = false;
        let n_dcn = bb
            .slots
            .iter()
            .filter(|s| **s == SlotKind::Deformable)
            .count();
        let (_, _, map) = train_and_eval(bb, &cfg)?;
        table.row(&[
            name.into(),
            n_dcn.to_string(),
            f2(map.box_map),
            f2(map.mask_map),
            f2(map.mask_ap50),
        ]);
        Ok(())
    };

    run(
        "YOLACT-like (rigid)",
        BackboneConfig::uniform_slots(5, SlotKind::Regular),
        &mut table,
    )?;
    run(
        "YOLACT++-like (dense DCN)",
        BackboneConfig::uniform_slots(5, SlotKind::Deformable),
        &mut table,
    )?;
    run(
        "YOLACT++-like (interval 3)",
        BackboneConfig::interval_slots(5, 3),
        &mut table,
    )?;

    // Ours: interval-searched placement, then fine-tuned (the searched
    // architecture is trained with the same budget as the baselines).
    {
        let mut store = ParamStore::new();
        let mut bb =
            BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Searchable));
        bb.lightweight_offsets = false;
        let data = prepare(&cfg.dataset, cfg.train_size, cfg.seed);
        let mut net = DetectorSuperNet::new(&mut store, bb, data, cfg.batch_size);
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let keys = net.detector.backbone.all_latency_keys();
        let lut = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::Tex2dPlusPlus,
            OffsetPredictorKind::Lightweight,
            OpFamily::DcnV1,
        );
        let iters = cfg.train_size / cfg.batch_size;
        let search_cfg = SearchConfig {
            search_epochs: if fast { 2 } else { 6 },
            finetune_epochs: if fast { 1 } else { 8 },
            iters_per_epoch: iters,
            beta: 0.5,
            target_latency_ms: 0.05,
            lr: cfg.lr,
            ..Default::default()
        };
        let outcome = IntervalSearch::new(search_cfg, lut).run(
            &mut net,
            &mut store,
            &RobustConfig::default(),
        )?;
        let val = prepare(&cfg.dataset, cfg.val_size, cfg.seed ^ 0xFFFF_0000).samples;
        let map = evaluate_detector(&mut net.detector, &store, &val, 0.05);
        table.row(&[
            format!("Ours (searched: {})", net.detector.backbone.layout()),
            outcome.num_dcn().to_string(),
            f2(map.box_map),
            f2(map.mask_map),
            f2(map.mask_ap50),
        ]);
    }
    table.print();
    Ok(())
}
