//! Smoke tests for the `repro_*` binaries: run them end to end on tiny
//! shapes (`DEFCON_TINY=1`) and check the machine-readable report
//! (`DEFCON_JSON=1`, last stdout line) parses with the expected keys.
//!
//! These tests exist so a refactor cannot silently break the executables the
//! reproduction is actually driven with — unit tests never run `main`.

use defcon_support::json::Json;
use std::process::Command;

/// Runs a repro binary in tiny+JSON mode with an explicit simulator thread
/// count and returns (full stdout, parsed report from the last line).
fn run_tiny_json_threads(bin: &str, threads: usize) -> (String, Json) {
    let out = Command::new(bin)
        .env("DEFCON_TINY", "1")
        .env("DEFCON_JSON", "1")
        .env("DEFCON_FAST", "1")
        .env("DEFCON_THREADS", threads.to_string())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("repro output is UTF-8");
    let last = stdout
        .trim_end()
        .lines()
        .last()
        .expect("repro printed nothing");
    let json = Json::parse(last)
        .unwrap_or_else(|e| panic!("{bin}: last stdout line is not JSON ({e}): {last}"));
    (stdout, json)
}

/// Runs a repro binary in tiny+JSON mode, pinned to one simulator thread
/// so the ambient `DEFCON_THREADS` (CI runs the suite at 1 and 4) never
/// reaches the child; `reports_agree_across_thread_counts` checks the
/// other counts.
fn run_tiny_json(bin: &str) -> (String, Json) {
    run_tiny_json_threads(bin, 1)
}

/// Shared checks: experiment tag, device name, non-empty row array with the
/// given keys in every row.
fn assert_report(json: &Json, experiment: &str, row_keys: &[&str]) {
    assert_eq!(json.str_field("experiment").unwrap(), experiment);
    assert_eq!(json.str_field("device").unwrap(), "Jetson-AGX-Xavier");
    let rows = json.field("rows").unwrap().as_arr().unwrap();
    assert!(!rows.is_empty(), "{experiment}: no rows");
    for row in rows {
        for key in row_keys {
            assert!(
                row.get(key).is_some(),
                "{experiment}: row missing key '{key}': {row}"
            );
        }
    }
}

#[test]
fn table2_reports_layer_timings() {
    let (_, json) = run_tiny_json(env!("CARGO_BIN_EXE_repro_table2_xavier"));
    assert_report(
        &json,
        "table2",
        &[
            "c_in",
            "c_out",
            "h",
            "w",
            "pytorch_ms",
            "tex2d_ms",
            "tex2dpp_ms",
            "speedup",
        ],
    );
    for row in json.field("rows").unwrap().as_arr().unwrap() {
        assert!(row.num_field("pytorch_ms").unwrap() > 0.0);
        assert!(row.num_field("tex2d_ms").unwrap() > 0.0);
        assert!(row.num_field("tex2dpp_ms").unwrap() > 0.0);
    }
}

#[test]
fn fig7_reports_speedups_and_geomeans() {
    let (_, json) = run_tiny_json(env!("CARGO_BIN_EXE_repro_fig7_speedup"));
    assert_report(&json, "fig7", &["layer", "tex2d", "tex2dpp"]);
    assert!(json.num_field("geomean_tex2d").unwrap() > 0.0);
    assert!(json.num_field("geomean_tex2dpp").unwrap() > 0.0);
}

#[test]
fn fig10_reports_counters_per_impl() {
    let (_, json) = run_tiny_json(env!("CARGO_BIN_EXE_repro_fig10_counters"));
    assert_report(
        &json,
        "fig10",
        &[
            "layer",
            "impl",
            "mflop",
            "gld_trans_per_req",
            "gld_efficiency",
            "tex_requests",
            "tex_hit_rate",
        ],
    );
    // Every layer sweeps 4 implementations, and the software path must not
    // issue texture requests while the texture paths must.
    let rows = json.field("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len() % 4, 0);
    for row in rows {
        let tex = row.u64_field("tex_requests").unwrap();
        match row.str_field("impl").unwrap() {
            "PyTorch" => assert_eq!(tex, 0, "software path issued texture requests"),
            _ => assert!(tex > 0, "texture path issued no texture requests"),
        }
    }
}

/// Golden-report snapshots: the single-thread tiny-mode JSON report of every
/// repro binary is checked in under `tests/golden/` and must match byte for
/// byte. Regenerate after an intentional model change with:
///
/// ```sh
/// DEFCON_BLESS=1 cargo test -p defcon-bench --offline golden
/// ```
#[test]
fn golden_reports_match_snapshots() {
    let cases = [
        (env!("CARGO_BIN_EXE_repro_table2_xavier"), "table2_xavier"),
        (env!("CARGO_BIN_EXE_repro_fig10_counters"), "fig10_counters"),
        (env!("CARGO_BIN_EXE_repro_fig7_speedup"), "fig7_speedup"),
    ];
    for (bin, name) in cases {
        let (stdout, _) = run_tiny_json(bin);
        let mut actual = stdout.trim_end().lines().last().unwrap().to_string();
        actual.push('\n');
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.json"));
        if defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::BLESS)) {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); run with DEFCON_BLESS=1 to record it",
                path.display()
            )
        });
        assert_eq!(
            actual,
            golden,
            "{name}: report diverged from {}; if the model change is \
             intentional, re-bless with DEFCON_BLESS=1",
            path.display()
        );
    }
}

/// Every binary that fans rows out on `DEFCON_THREADS` workers prints the
/// same stdout bytes at 2 and 4 threads as at 1: each row runs whole on the
/// serial engine, and results come back in row order.
#[test]
fn reports_agree_across_thread_counts() {
    for bin in [
        env!("CARGO_BIN_EXE_repro_table2_xavier"),
        env!("CARGO_BIN_EXE_repro_fig10_counters"),
        env!("CARGO_BIN_EXE_repro_fig7_speedup"),
        env!("CARGO_BIN_EXE_repro_backends"),
    ] {
        let (serial, _) = run_tiny_json_threads(bin, 1);
        for threads in [2usize, 4] {
            let (parallel, _) = run_tiny_json_threads(bin, threads);
            assert_eq!(
                parallel, serial,
                "{bin}: stdout differs at {threads} threads"
            );
        }
    }
}

#[test]
fn reports_are_byte_identical_across_runs() {
    // The acceptance bar for the hermetic build: same seed, same bytes.
    for bin in [
        env!("CARGO_BIN_EXE_repro_table2_xavier"),
        env!("CARGO_BIN_EXE_repro_fig7_speedup"),
    ] {
        let (a, _) = run_tiny_json(bin);
        let (b, _) = run_tiny_json(bin);
        assert_eq!(a, b, "{bin} output differs between identical runs");
    }
}
