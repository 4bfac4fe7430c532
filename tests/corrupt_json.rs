//! Seeded property test: corrupted checkpoint state is a *typed*,
//! positioned [`JsonError`] (or a clean load when the corruption happens
//! to keep the document valid) — never a panic, for any mutation.
//!
//! The one JSON document the workspace reads back is a checkpoint's
//! parameter state: [`ParamStore::state_to_json`] written, then
//! [`Json::parse`] and [`ParamStore::load_state_json`] on resume. The
//! property serializes a real store, mutates or truncates the bytes at a
//! seeded position, and requires the loader to behave.

use defcon::nn::graph::ParamStore;
use defcon::tensor::Tensor;
use defcon_support::json::Json;
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

/// A small model's parameter store: two named tensors, with momentum from
/// one SGD step so the velocity arrays are non-zero too.
fn store() -> ParamStore {
    let mut s = ParamStore::new();
    let w = s.add("conv.weight", Tensor::randn(&[2, 3], 0.0, 1.0, 5), true);
    s.add("conv.bias", Tensor::from_vec(vec![0.5, -1.25], &[2]), false);
    s.accumulate_grad(w, &Tensor::ones(&[2, 3]));
    s.sgd_step(0.1, 0.9, 1e-4);
    s
}

/// A store with the same registered parameters, ready to load into.
fn fresh_store() -> ParamStore {
    let mut s = ParamStore::new();
    s.add("conv.weight", Tensor::zeros(&[2, 3]), true);
    s.add("conv.bias", Tensor::zeros(&[2]), false);
    s
}

#[test]
fn corrupted_param_state_json_is_typed_and_positioned() {
    let doc = store().state_to_json().to_string();
    // Round-trip sanity before corrupting anything.
    let mut back = fresh_store();
    back.load_state_json(&Json::parse(&doc).unwrap()).unwrap();
    assert_eq!(back.state_to_json().to_string(), doc);
    prop::check(
        "corrupt param state json never panics",
        &Config::new(64, 0x5EED),
        |rng| draw_mutation(rng, doc.len()),
        |m| {
            let mutated = apply(&doc, m);
            let outcome = Json::parse(&mutated).and_then(|j| fresh_store().load_state_json(&j));
            // Truncations (strict prefixes of a `{...}` document) can never
            // be valid JSON, so they must fail with an offset inside the
            // input. A single-byte replacement may leave the document valid
            // (digit → digit); both Ok and a typed Err satisfy the
            // contract, and reaching here without a panic is the assertion.
            if let Mutation::Truncate(_) = m {
                let err = match outcome {
                    Err(e) => e,
                    Ok(()) => return Err(format!("truncated doc loaded cleanly: {mutated:?}")),
                };
                prop_assert!(
                    err.offset <= mutated.len(),
                    "error position {} beyond the {}-byte input",
                    err.offset,
                    mutated.len()
                );
            }
            Ok(())
        },
    );
}

#[test]
fn replace_then_restore_is_identity() {
    let doc = store().state_to_json().to_string();
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
