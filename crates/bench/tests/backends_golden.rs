//! Golden cross-backend table: `repro_backends` in tiny+JSON mode at
//! `DEFCON_THREADS=1` must reproduce the blessed report in
//! `tests/golden/backends_table.json` byte for byte. Both timing models
//! are closed-form deterministic (gpusim's engine at one thread is
//! byte-identical to the serial engine; the accel cycle model is
//! all-integer), so the table is a function of the code alone.
//!
//! Re-bless after an intentional timing-model change with:
//!
//! ```sh
//! DEFCON_BLESS=1 cargo test -p defcon-bench --offline --test backends_golden
//! ```

use defcon_support::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `repro_backends` tiny+JSON at one simulator thread and returns the
/// report line (last stdout line, newline-terminated like the golden).
fn run_report() -> String {
    let bin = env!("CARGO_BIN_EXE_repro_backends");
    let out = Command::new(bin)
        .env("DEFCON_TINY", "1")
        .env("DEFCON_JSON", "1")
        .env("DEFCON_FAST", "1")
        .env("DEFCON_THREADS", "1")
        .env_remove("DEFCON_BLESS")
        .env_remove("DEFCON_BENCH_OUT")
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
    format!("{last}\n")
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/backends_table.json")
}

#[test]
fn golden_backends_table_matches_snapshot() {
    let actual = run_report();
    let path = golden_path();
    if defcon_support::env::or_die(defcon_support::env::flag(defcon_support::env::BLESS)) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden table {} ({e}); run with DEFCON_BLESS=1 to record it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden,
        "backends table diverged from {}; if the timing-model change is \
         intentional, re-bless with DEFCON_BLESS=1",
        path.display()
    );
}

#[test]
fn backends_table_is_byte_identical_across_runs() {
    assert_eq!(
        run_report(),
        run_report(),
        "backends report differs between identical runs"
    );
}

/// Structural checks on the report so a re-bless cannot silently drop a
/// device pairing or a timing column.
#[test]
fn backends_report_covers_both_pairings_with_all_columns() {
    let json = Json::parse(run_report().trim_end()).expect("report parses");
    assert_eq!(json.str_field("experiment").unwrap(), "backends");
    let pairs = json.field("pairs").unwrap().as_arr().unwrap();
    let names: Vec<(String, String)> = pairs
        .iter()
        .map(|p| {
            (
                p.str_field("gpu").unwrap().to_string(),
                p.str_field("accel").unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(
        names,
        vec![
            ("Jetson-AGX-Xavier".into(), "DCN-Accel-Edge".into()),
            ("RTX-2080Ti".into(), "DCN-Accel-DC".into()),
        ]
    );
    for pair in pairs {
        let rows = pair.field("rows").unwrap().as_arr().unwrap();
        assert!(!rows.is_empty(), "empty sweep in {pair}");
        for row in rows {
            for key in [
                "accel_tile_h",
                "accel_tile_w",
                "gpusim_pytorch_ms",
                "gpusim_tex2d_ms",
                "gpusim_tex2dpp_ms",
                "accel_pytorch_ms",
                "accel_tex2d_ms",
                "accel_tex2dpp_ms",
                "cross_speedup",
            ] {
                let v = row
                    .num_field(key)
                    .unwrap_or_else(|e| panic!("row missing numeric '{key}' ({e:?}): {row}"));
                assert!(v > 0.0, "{key} must be positive: {row}");
            }
        }
    }
}
