//! Seeded property tests: corrupted serialized state is a *typed*,
//! positioned [`JsonError`] (or a clean re-parse when the corruption
//! happens to keep the document valid) — never a panic, for any mutation.
//!
//! Three serialized artifacts cross process boundaries in this workspace —
//! the latency LUT, the device config, and kernel reports — so each gets
//! the same treatment: serialize a real value, mutate or truncate the
//! bytes at a seeded position, and require the loader to behave.

use defcon::core::lut::{LatencyKey, LatencyLut};
use defcon::gpusim::{Counters, DeviceConfig, Gpu, KernelReport};
use defcon::kernels::op::{
    synthetic_inputs, DeformConvOp, OffsetPredictorKind, OpFamily, SamplingMethod,
};
use defcon::kernels::DeformLayerShape;
use defcon_support::json::{FromJson, Json, JsonError, ToJson};
use defcon_support::prop::{self, Config};
use defcon_support::rng::{Rng, StdRng};
use defcon_support::{prop_assert, prop_assert_eq};

/// One seeded corruption of an ASCII document.
#[derive(Debug)]
enum Mutation {
    /// Keep only `0..idx` (a torn write).
    Truncate(usize),
    /// Overwrite the byte at `idx` with a printable ASCII byte.
    Replace(usize, u8),
}

fn draw_mutation(rng: &mut StdRng, len: usize) -> Mutation {
    if rng.gen_range(0u32..2) == 0 {
        Mutation::Truncate(rng.gen_range(1..len))
    } else {
        Mutation::Replace(rng.gen_range(0..len), rng.gen_range(0x20u32..0x7f) as u8)
    }
}

fn apply(doc: &str, m: &Mutation) -> String {
    assert!(doc.is_ascii(), "corruption below assumes 1-byte chars");
    match *m {
        Mutation::Truncate(idx) => doc[..idx].to_string(),
        Mutation::Replace(idx, b) => {
            let mut bytes = doc.as_bytes().to_vec();
            bytes[idx] = b;
            String::from_utf8(bytes).expect("printable ASCII stays UTF-8")
        }
    }
}

/// The shared property: parsing the mutated bytes either fails with a
/// positioned error or yields a document the typed loader handles — it
/// must never panic. Truncations (strict prefixes of a `{...}`/`[...]`
/// document) can never be valid JSON, so those must fail with an offset
/// pointing into the document.
fn check_corruption<T>(
    doc: &str,
    m: &Mutation,
    load: impl Fn(&Json) -> Result<T, JsonError>,
) -> Result<(), String> {
    let mutated = apply(doc, m);
    let outcome = Json::parse(&mutated).and_then(|j| load(&j).map(|_| ()));
    if let Mutation::Truncate(_) = m {
        let err = match outcome {
            Err(e) => e,
            Ok(()) => return Err(format!("truncated doc parsed cleanly: {mutated:?}")),
        };
        prop_assert!(
            err.offset <= mutated.len(),
            "error position {} beyond the {}-byte input",
            err.offset,
            mutated.len()
        );
    }
    // A single-byte replacement may leave the document valid (digit →
    // digit); both Ok and a typed Err satisfy the contract. Reaching here
    // without a panic is the assertion.
    Ok(())
}

#[test]
fn corrupted_latency_lut_json_is_typed_and_positioned() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let key = LatencyKey {
        c_in: 16,
        c_out: 16,
        h: 16,
        w: 16,
        stride: 1,
    };
    let doc = LatencyLut::build(
        &gpu,
        &[key],
        SamplingMethod::SoftwareBilinear,
        OffsetPredictorKind::Standard,
        OpFamily::DcnV1,
    )
    .to_json();
    // Round-trip sanity before corrupting anything.
    assert_eq!(LatencyLut::from_json(&doc).unwrap().to_json(), doc);
    prop::check(
        "corrupt LUT json",
        &Config::new(64, 0xC0DE),
        |rng| draw_mutation(rng, doc.len()),
        |m| {
            let mutated = apply(&doc, m);
            let outcome = LatencyLut::from_json(&mutated);
            if let Mutation::Truncate(_) = m {
                prop_assert!(outcome.is_err(), "truncated LUT parsed: {mutated:?}");
            }
            Ok(())
        },
    );
}

#[test]
fn corrupted_device_config_json_is_typed_and_positioned() {
    let doc = DeviceConfig::rtx2080ti().to_json().to_string();
    let back = DeviceConfig::from_json(&Json::parse(&doc).unwrap()).unwrap();
    prop_assert_never_panics(&doc, 0xDEC0, |j| {
        // A structurally valid but value-mutated config must flow into the
        // typed validator, not a launch-time panic.
        DeviceConfig::from_json(j).map(|cfg| {
            let _ = cfg.validate();
        })
    });
    assert_eq!(back.to_json().to_string(), doc);
}

#[test]
fn corrupted_kernel_report_json_is_typed_and_positioned() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let shape = DeformLayerShape::same3x3(8, 8, 12, 12);
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 3);
    let report = DeformConvOp::baseline(shape)
        .simulate_deform(&gpu, &x, &offsets)
        .remove(0);
    let doc = report.to_json().to_string();
    assert_eq!(
        KernelReport::from_json(&Json::parse(&doc).unwrap()).unwrap(),
        report
    );
    prop_assert_never_panics(&doc, 0x5EED, |j| KernelReport::from_json(j).map(|_| ()));
}

/// Drives [`check_corruption`] over 64 seeded mutations of `doc`.
fn prop_assert_never_panics(doc: &str, seed: u64, load: impl Fn(&Json) -> Result<(), JsonError>) {
    prop::check(
        "corrupt json never panics",
        &Config::new(64, seed),
        |rng| draw_mutation(rng, doc.len()),
        |m| check_corruption(doc, m, &load),
    );
}

#[test]
fn counters_field_removal_is_a_missing_field_error() {
    // Beyond byte soup: a structurally valid document missing one field
    // must name the field in the error, not default it to zero.
    let c = Counters::default().to_json();
    let Json::Obj(pairs) = c else {
        panic!("counters serialize to an object")
    };
    for drop_idx in 0..pairs.len() {
        let missing = pairs[drop_idx].0.clone();
        let doc = Json::Obj(
            pairs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop_idx)
                .map(|(_, kv)| kv.clone())
                .collect(),
        );
        let err = Counters::from_json(&doc).unwrap_err();
        assert!(
            err.message.contains(&missing),
            "error {err} should name the dropped field {missing:?}"
        );
    }
}

/// `prop_assert_eq` is exercised so the macro import stays honest.
#[test]
fn replace_then_restore_is_identity() {
    let doc = DeviceConfig::xavier_agx().to_json().to_string();
    prop::check(
        "replace/restore identity",
        &Config::new(32, 7),
        |rng| rng.gen_range(0..doc.len()),
        |&idx| {
            let m = Mutation::Replace(idx, b'!');
            let mut mutated = apply(&doc, &m).into_bytes();
            mutated[idx] = doc.as_bytes()[idx];
            prop_assert_eq!(String::from_utf8(mutated).unwrap(), doc.clone());
            Ok(())
        },
    );
}
