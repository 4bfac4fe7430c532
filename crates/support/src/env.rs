//! Centralized `DEFCON_*` environment-variable parsing.
//!
//! The workspace's behaviour switches (`DEFCON_THREADS`, `DEFCON_TINY`,
//! `DEFCON_JSON`, `DEFCON_FAST`, `DEFCON_BLESS`) used to be parsed ad hoc
//! at ~10 call sites with three different conventions (`is_ok()`,
//! `is_some()`, `== Ok("1")`), and a malformed value — `DEFCON_THREADS=two`
//! — was silently ignored. This module is the single parser: flags accept
//! `1/true/yes/on` and `0/false/no/off` (case-insensitive) plus the empty
//! string as off, counts accept positive integers, and **anything else is a
//! typed [`DefconError::Env`]** naming the variable, the offending value
//! and the accepted forms.
//!
//! Callers that cannot propagate a `Result` (process-wide thread-count
//! caches, bench binaries) report the error and exit via [`or_die`] — a
//! deliberate, clearly-worded configuration failure instead of a panic
//! backtrace or a silent fallback.

use crate::error::DefconError;

/// `DEFCON_THREADS` — worker-thread override shared by `support::par` and
/// the gpusim engine.
pub const THREADS: &str = "DEFCON_THREADS";
/// `DEFCON_TINY` — swap paper-scale sweeps for tiny smoke shapes.
pub const TINY: &str = "DEFCON_TINY";
/// `DEFCON_JSON` — emit machine-readable JSON report lines.
pub const JSON: &str = "DEFCON_JSON";
/// `DEFCON_FAST` — shrink example/repro workloads.
pub const FAST: &str = "DEFCON_FAST";
/// `DEFCON_BLESS` — re-record golden snapshots.
pub const BLESS: &str = "DEFCON_BLESS";
/// `DEFCON_TRACE` — path for the Chrome trace-event file written by
/// `support::obs` when armed from the environment.
pub const TRACE: &str = "DEFCON_TRACE";
/// `DEFCON_OBS_WALL` — wall-clock span timestamps instead of the
/// byte-reproducible logical clock.
pub const OBS_WALL: &str = "DEFCON_OBS_WALL";
/// `DEFCON_BENCH_OUT` — override path for a bench binary's JSON report
/// (used by CI to compare two runs without touching the committed file).
pub const BENCH_OUT: &str = "DEFCON_BENCH_OUT";
/// `DEFCON_CHAOS_SEED` — seed for the `repro_chaos` soak harness (fault
/// plan + request stream); any u64, default when unset is the harness's
/// pinned seed.
pub const CHAOS_SEED: &str = "DEFCON_CHAOS_SEED";

/// Reads a boolean flag. Unset and empty mean **off**; `1`, `true`, `yes`,
/// `on` mean **on**; `0`, `false`, `no`, `off` mean **off** (all
/// case-insensitive). Anything else is a [`DefconError::Env`].
pub fn flag(name: &str) -> Result<bool, DefconError> {
    match std::env::var(name) {
        Err(_) => Ok(false),
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "false" | "no" | "off" => Ok(false),
            "1" | "true" | "yes" | "on" => Ok(true),
            _ => Err(DefconError::Env {
                var: name.to_string(),
                value: v,
                expected: "a boolean flag (1/true/yes/on or 0/false/no/off)",
            }),
        },
    }
}

/// Reads a positive-integer variable. Unset means `None`; a positive
/// integer parses; zero, negatives, and garbage are [`DefconError::Env`].
pub fn positive_usize(name: &str) -> Result<Option<usize>, DefconError> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(DefconError::Env {
                var: name.to_string(),
                value: v,
                expected: "a positive integer",
            }),
        },
    }
}

/// The `DEFCON_THREADS` override, if set (and valid).
pub fn threads_override() -> Result<Option<usize>, DefconError> {
    positive_usize(THREADS)
}

/// Reads a non-negative `u64` variable (seeds, cycle budgets — zero is a
/// meaningful value for these, unlike the counts `positive_usize` parses).
/// Unset means `None`; negatives and garbage are [`DefconError::Env`].
pub fn u64_value(name: &str) -> Result<Option<u64>, DefconError> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(DefconError::Env {
                var: name.to_string(),
                value: v,
                expected: "a non-negative integer",
            }),
        },
    }
}

/// Reads a path-valued variable. Unset and empty mean `None`; a
/// whitespace-only value is a [`DefconError::Env`] — it is never a usable
/// path, always a shell-quoting mistake.
pub fn path(name: &str) -> Result<Option<std::path::PathBuf>, DefconError> {
    match std::env::var(name) {
        Err(_) => Ok(None),
        Ok(v) if v.is_empty() => Ok(None),
        Ok(v) if v.trim().is_empty() => Err(DefconError::Env {
            var: name.to_string(),
            value: v,
            expected: "a file path (or unset/empty to disable)",
        }),
        Ok(v) => Ok(Some(std::path::PathBuf::from(v))),
    }
}

/// The `DEFCON_TRACE` output path, if tracing is enabled.
pub fn trace_path() -> Result<Option<std::path::PathBuf>, DefconError> {
    path(TRACE)
}

/// Unwraps an environment-parse result; on `Err`, prints the error to
/// stderr and exits with status 2. For call sites (process-wide caches,
/// binary entry points) that cannot propagate — a malformed environment is
/// a fatal configuration error, reported clearly, never a panic and never
/// silently defaulted.
pub fn or_die<T>(r: Result<T, DefconError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("defcon: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var state is process-global; each test uses its own unique
    // variable name so parallel test threads cannot race.

    #[test]
    fn unset_flag_is_off_and_unset_count_is_none() {
        assert_eq!(flag("DEFCON_TEST_UNSET_X"), Ok(false));
        assert_eq!(positive_usize("DEFCON_TEST_UNSET_Y"), Ok(None));
    }

    #[test]
    fn flag_accepts_both_polarities() {
        let name = "DEFCON_TEST_FLAG_POLARITY";
        for (v, want) in [
            ("1", true),
            ("true", true),
            ("YES", true),
            ("on", true),
            ("0", false),
            ("false", false),
            ("No", false),
            ("off", false),
            ("", false),
        ] {
            std::env::set_var(name, v);
            assert_eq!(flag(name), Ok(want), "value {v:?}");
        }
        std::env::remove_var(name);
    }

    #[test]
    fn malformed_flag_is_a_typed_error() {
        let name = "DEFCON_TEST_FLAG_BAD";
        std::env::set_var(name, "maybe");
        let e = flag(name).unwrap_err();
        assert!(matches!(e, DefconError::Env { .. }));
        assert!(e.to_string().contains(name));
        assert!(e.to_string().contains("maybe"));
        std::env::remove_var(name);
    }

    #[test]
    fn path_rejects_whitespace_only() {
        let name = "DEFCON_TEST_PATH";
        assert_eq!(path("DEFCON_TEST_PATH_UNSET"), Ok(None));
        std::env::set_var(name, "");
        assert_eq!(path(name), Ok(None));
        std::env::set_var(name, "  ");
        assert!(matches!(path(name), Err(DefconError::Env { .. })));
        std::env::set_var(name, "/tmp/trace.json");
        assert_eq!(
            path(name),
            Ok(Some(std::path::PathBuf::from("/tmp/trace.json")))
        );
        std::env::remove_var(name);
    }

    #[test]
    fn u64_value_accepts_zero_and_rejects_garbage() {
        let name = "DEFCON_TEST_U64";
        assert_eq!(u64_value("DEFCON_TEST_U64_UNSET"), Ok(None));
        std::env::set_var(name, "0");
        assert_eq!(u64_value(name), Ok(Some(0)));
        std::env::set_var(name, "18446744073709551615");
        assert_eq!(u64_value(name), Ok(Some(u64::MAX)));
        for bad in ["-1", "nine", "1.5", ""] {
            std::env::set_var(name, bad);
            assert!(u64_value(name).is_err(), "value {bad:?}");
        }
        std::env::remove_var(name);
    }

    #[test]
    fn count_parses_and_rejects() {
        let name = "DEFCON_TEST_COUNT";
        std::env::set_var(name, "4");
        assert_eq!(positive_usize(name), Ok(Some(4)));
        for bad in ["0", "-1", "two", "4.5"] {
            std::env::set_var(name, bad);
            assert!(positive_usize(name).is_err(), "value {bad:?}");
        }
        std::env::remove_var(name);
    }
}
