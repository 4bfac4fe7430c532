//! Golden serving trace: `repro_serving`'s fixed 16-request session run
//! with `DEFCON_TRACE` at `DEFCON_THREADS=1` must reproduce the blessed
//! snapshot in `tests/golden/serving_trace.json` byte for byte, and its
//! embedded metrics must report the session's cache behaviour *exactly*
//! (8 hits / 8 misses through a capacity-8 queue; final queue depth 0).
//!
//! Re-bless after an intentional serving/instrumentation change with:
//!
//! ```sh
//! DEFCON_BLESS=1 cargo test -p defcon-bench --offline --test serving_golden
//! ```
//!
//! While obs is armed the miss drain runs its simulations inline on the
//! recording thread and no span records the worker count, so a 4-worker
//! trace is the golden, byte for byte. The serving *content* across thread
//! counts is covered by `tests/serving_equivalence.rs`.

use defcon_support::json::Json;
use defcon_support::obs::{find_spans, forest_from_chrome};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `repro_serving` in tiny mode with tracing to a unique temp file.
/// Serving env knobs are stripped so the session shape is always the
/// fixed 16-request / capacity-8 one the golden was blessed from.
fn run_traced(threads: usize, tag: &str) -> String {
    let bin = env!("CARGO_BIN_EXE_repro_serving");
    let trace = std::env::temp_dir().join(format!(
        "defcon-serving-{}-{tag}-t{threads}.json",
        std::process::id()
    ));
    let out = Command::new(bin)
        .env("DEFCON_TINY", "1")
        .env("DEFCON_JSON", "1")
        .env("DEFCON_THREADS", threads.to_string())
        .env("DEFCON_TRACE", &trace)
        .env_remove("DEFCON_OBS_WALL")
        .env_remove("DEFCON_BLESS")
        .env_remove("DEFCON_SERVE_QUEUE")
        .env_remove("DEFCON_SERVE_CACHE")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| panic!("{bin} did not write trace {}: {e}", trace.display()));
    let _ = std::fs::remove_file(&trace);
    assert!(!bytes.is_empty(), "empty trace file");
    bytes
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serving_trace.json")
}

#[test]
fn golden_serving_trace_matches_snapshot() {
    let actual = run_traced(1, "golden");
    let path = golden_path();
    if defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::BLESS)) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); run with DEFCON_BLESS=1 to record it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden,
        "serving trace diverged from {}; if the serving/instrumentation \
         change is intentional, re-bless with DEFCON_BLESS=1",
        path.display()
    );
}

#[test]
fn serving_trace_is_byte_identical_across_runs() {
    let a = run_traced(1, "runa");
    let b = run_traced(1, "runb");
    assert_eq!(a, b, "serving trace differs between identical runs");
}

#[test]
fn four_worker_trace_equals_the_golden() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden serving trace");
    assert_eq!(run_traced(4, "t4"), golden);
}

/// The exact-counter satellite: cache-hit counters and queue-depth gauges
/// from the session's metrics block, pinned to the session's arithmetic
/// (16 requests = 8 misses + 8 hits; queue drained to 0; 1 shed).
#[test]
fn serving_trace_counters_and_gauges_are_exact() {
    let trace = run_traced(1, "metrics");
    let doc = Json::parse(&trace).expect("trace is valid JSON");
    let metrics = doc.field("metrics").expect("trace embeds metrics");
    let counters = metrics.field("counters").expect("metrics.counters");
    for (name, want) in [
        ("serve.requests", 16u64),
        ("serve.cache_hits", 8),
        ("serve.cache_misses", 8),
    ] {
        assert_eq!(
            counters.u64_field(name),
            Ok(want),
            "counter {name}: {counters}"
        );
    }
    let gauges = metrics.field("gauges").expect("metrics.gauges");
    assert_eq!(
        gauges.num_field("serve.queue_depth"),
        Ok(0.0),
        "queue must drain to empty"
    );
    assert_eq!(
        gauges.num_field("serve.hit_rate"),
        Ok(0.5),
        "8 hits over 16 lookups"
    );

    // Span structure: two drains (mid-session overflow + final), one
    // serve.request span per response, exactly one shed event.
    let forest = forest_from_chrome(&doc).expect("forest parses");
    assert_eq!(find_spans(&forest, "serve.drain").len(), 2);
    assert_eq!(find_spans(&forest, "serve.request").len(), 16);
    let sheds = find_spans(&forest, "serve.shed");
    assert_eq!(sheds.len(), 1, "exactly one admission overflow");
    // The first drain is all misses, the second all hits.
    let requests = find_spans(&forest, "serve.request");
    let from_cache: Vec<bool> = requests
        .iter()
        .map(|s| s.arg("from_cache") == Some(&Json::Bool(true)))
        .collect();
    assert_eq!(&from_cache[..8], &[false; 8]);
    assert_eq!(&from_cache[8..], &[true; 8]);
}
