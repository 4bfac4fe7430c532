//! Train the YOLACT-style detector on the synthetic deformed-shapes dataset
//! and visualize one prediction as ASCII art.
//!
//! ```sh
//! cargo run --release --example detect_shapes
//! ```
//!
//! (Training runs on one CPU core; a couple of minutes with the default
//! budget. Set `DEFCON_FAST=1` for a ~20 s smoke run.)

use defcon::models::detector::decode_detections;
use defcon::models::trainer::{evaluate_detector, prepare, train_detector};
use defcon::prelude::*;
use defcon_support::error::DefconError;

fn main() -> Result<(), DefconError> {
    let fast = defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::FAST));
    let dataset = DeformedShapesConfig {
        deformation: 1.0,
        ..Default::default()
    };
    let cfg = TrainConfig {
        epochs: if fast { 2 } else { 10 },
        batch_size: 8,
        lr: 0.02,
        train_size: if fast { 32 } else { 240 },
        val_size: 48,
        dataset,
        seed: 7,
    };

    let mut store = ParamStore::new();
    let backbone = BackboneConfig::mini(48, BackboneConfig::interval_slots(5, 3));
    let mut det = YolactLite::new(&mut store, backbone);
    println!(
        "backbone layout: {} ({} parameters)",
        det.backbone.layout(),
        store.num_scalars()
    );

    let history = train_detector(&mut det, &mut store, &cfg, 0.0, &RobustConfig::default())?;
    println!("per-epoch loss: {history:?}");

    let val = prepare(&cfg.dataset, cfg.val_size, 0xFACE).samples;
    let map = evaluate_detector(&mut det, &store, &val, 0.05);
    println!(
        "validation: box mAP {:.2}, mask mAP {:.2}, mask AP50 {:.2}\n",
        map.box_map, map.mask_map, map.mask_ap50
    );

    // Visualize the strongest detection on the first validation image.
    det.set_training(false);
    let sample = &val[0];
    let mut tape = Tape::new();
    let x = tape.input(sample.image.clone());
    let out = det.forward(&mut tape, &store, x);
    let dets = decode_detections(
        tape.value(out.cls),
        tape.value(out.boxes),
        tape.value(out.coeffs),
        tape.value(out.protos),
        0,
        48,
        0.05,
        0.5,
    );
    println!(
        "ground truth: {:?}",
        sample
            .objects
            .iter()
            .map(|o| (o.class, o.bbox))
            .collect::<Vec<_>>()
    );
    if let Some(d) = dets.first() {
        println!(
            "top detection: class {} score {:.2} bbox {:?}",
            d.class, d.score, d.bbox
        );
        println!("\nimage ('#' = object pixel) vs predicted mask ('*'):");
        for y in 0..48 {
            let mut row = String::with_capacity(100);
            for xx in 0..48 {
                row.push(if sample.image.at4(0, 0, y, xx) > 0.45 {
                    '#'
                } else {
                    '.'
                });
            }
            row.push_str("   ");
            for xx in 0..48 {
                row.push(if d.mask[y * 48 + xx] { '*' } else { '.' });
            }
            println!("{row}");
        }
    } else {
        println!("no detections above threshold (increase the training budget)");
    }
    Ok(())
}
