//! Golden-trace conformance tests: run the repro binaries with
//! `DEFCON_TRACE=<path>` and hold the emitted Chrome trace to the
//! determinism contract (DESIGN.md §8): the trace is **byte-identical**
//! across runs and across `DEFCON_THREADS` settings, and matches the
//! blessed snapshot under `tests/golden/` byte for byte — the logical clock
//! makes timestamps a pure function of the event sequence, and while obs
//! is armed every worker map runs inline on the recording thread.
//!
//! Re-bless after an intentional instrumentation change with:
//!
//! ```sh
//! DEFCON_BLESS=1 cargo test -p defcon-bench --offline --test obs_golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs a repro binary in tiny mode with tracing to a unique temp file and
/// returns the raw trace bytes. The temp path encodes pid + tag so parallel
/// test binaries never collide.
fn run_traced(bin: &str, threads: usize, tag: &str) -> String {
    let trace = std::env::temp_dir().join(format!(
        "defcon-obs-{}-{tag}-t{threads}.json",
        std::process::id()
    ));
    let out = Command::new(bin)
        .env("DEFCON_TINY", "1")
        .env("DEFCON_JSON", "1")
        .env("DEFCON_FAST", "1")
        .env("DEFCON_THREADS", threads.to_string())
        .env("DEFCON_TRACE", &trace)
        .env_remove("DEFCON_OBS_WALL")
        .env_remove("DEFCON_BLESS")
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
    assert!(!bytes.is_empty(), "{bin}: empty trace file");
    bytes
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

const CASES: [(&str, &str); 2] = [
    (env!("CARGO_BIN_EXE_repro_table2_xavier"), "table2_trace"),
    (env!("CARGO_BIN_EXE_repro_fig7_speedup"), "fig7_trace"),
];

/// The single-thread trace must match the checked-in snapshot byte for byte.
#[test]
fn golden_traces_match_snapshots() {
    for (bin, name) in CASES {
        let actual = run_traced(bin, 1, name);
        let path = golden_path(name);
        if defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::BLESS)) {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
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
            "{name}: trace diverged from {}; if the instrumentation change is \
             intentional, re-bless with DEFCON_BLESS=1",
            path.display()
        );
    }
}

/// Two back-to-back single-thread runs emit identical bytes — the trace is a
/// pure function of the workload, not of scheduling or the clock.
#[test]
fn traces_are_byte_identical_across_runs() {
    for (bin, name) in CASES {
        let a = run_traced(bin, 1, &format!("{name}-runa"));
        let b = run_traced(bin, 1, &format!("{name}-runb"));
        assert_eq!(a, b, "{name}: trace differs between identical runs");
    }
}

/// A 4-thread run writes the 1-thread golden's bytes: launches are serial
/// walks, and the worker maps run inline while the trace is armed.
#[test]
fn traces_are_byte_identical_across_thread_counts() {
    for (bin, name) in CASES {
        let golden = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden trace {name} ({e})"));
        let parallel = run_traced(bin, 4, &format!("{name}-t4"));
        assert_eq!(parallel, golden, "{name}: 4-thread trace differs");
    }
}
