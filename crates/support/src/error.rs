//! The workspace-wide typed error.
//!
//! Every fallible public API in the DEFCON stack — checkpoint IO, launch
//! validation, the autotuner's linear algebra — reports failure through
//! [`DefconError`] instead of panicking, so callers can degrade gracefully
//! (retry, fall back, resume) rather than abort the process. Variants
//! carry enough structure for a caller to *dispatch* on the failure class;
//! the human-readable rendering goes through `Display`.

use crate::json::JsonError;
use std::fmt;

/// A typed error spanning all DEFCON crates.
#[derive(Clone, Debug, PartialEq)]
pub enum DefconError {
    /// A JSON document failed to parse or convert; `context` names the
    /// document (usually a file path).
    Json {
        /// What was being parsed.
        context: String,
        /// The positioned parse/convert error.
        source: JsonError,
    },
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error rendering (`std::io::Error` is not `Clone`).
        detail: String,
    },
    /// Stored bytes failed an integrity check (CRC mismatch, truncation).
    Corrupt {
        /// What was being read.
        what: String,
        /// Why it was rejected.
        detail: String,
    },
    /// A numeric quantity that must be finite was NaN or ±∞.
    NonFinite {
        /// The quantity (e.g. "training loss", "alpha gradient").
        what: String,
        /// The training/search step at which it appeared.
        step: usize,
    },
    /// A kernel matrix was not positive definite (Cholesky pivot failure).
    NotPositiveDefinite {
        /// Failing pivot row.
        pivot: usize,
        /// The offending diagonal value.
        value: f64,
    },
    /// A hardware/device constraint was violated (texture layer limit,
    /// cache geometry, launch shape).
    Constraint {
        /// The constraint class (e.g. "texture", "cache-config").
        what: String,
        /// The specific violation.
        detail: String,
    },
    /// A caller-supplied shape describes no computation the kernels can
    /// run (zero dimensions, zero stride, a window larger than its input,
    /// channels that do not split evenly). Deterministic on its input, so
    /// neither degradable nor retryable.
    InvalidShape {
        /// What the shape describes (e.g. "deformable layer").
        what: String,
        /// The first violated requirement.
        detail: String,
    },
    /// An environment variable held a value that does not parse.
    Env {
        /// Variable name.
        var: String,
        /// The value found.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// A required lookup key was absent.
    MissingKey {
        /// Description of the key and the table it was missing from.
        what: String,
    },
    /// Retries of a degradation path were exhausted without recovery.
    RetriesExhausted {
        /// The operation that kept failing.
        what: String,
        /// How many attempts were made.
        attempts: usize,
    },
    /// A bounded admission queue refused new work (serving-mode load
    /// shedding). Callers are expected to drain, retry, or degrade.
    Overloaded {
        /// The overloaded resource (e.g. "serve queue").
        what: String,
        /// Queue depth observed at rejection time.
        queue_depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// A request's virtual-time deadline budget was exhausted (serving-mode
    /// SLO enforcement): a verdict at admission, or the first launch whose
    /// running `ceil(cycles)` charge over the answer's reports passes the
    /// budget. Carries the budget and, in `what`, the stage or launch that
    /// overran it — never the cycles spent, which a stage verdict does not
    /// have — so a cache hit and a fresh simulation render the same error.
    DeadlineExceeded {
        /// What ran out of budget (e.g. "serve request").
        what: String,
        /// The virtual-cycle budget that was exhausted.
        budget_cycles: u64,
    },
}

impl fmt::Display for DefconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefconError::Json { context, source } => {
                write!(f, "invalid JSON in {context}: {source}")
            }
            DefconError::Io { path, detail } => write!(f, "io error on {path}: {detail}"),
            DefconError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            DefconError::NonFinite { what, step } => {
                write!(f, "non-finite {what} at step {step}")
            }
            DefconError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix not positive definite (pivot {pivot}, value {value:e})"
            ),
            DefconError::Constraint { what, detail } => {
                write!(f, "{what} constraint violated: {detail}")
            }
            DefconError::InvalidShape { what, detail } => {
                write!(f, "invalid {what} shape: {detail}")
            }
            DefconError::Env {
                var,
                value,
                expected,
            } => write!(f, "env var {var}={value:?} is invalid: expected {expected}"),
            DefconError::MissingKey { what } => write!(f, "missing key: {what}"),
            DefconError::RetriesExhausted { what, attempts } => {
                write!(f, "{what} failed after {attempts} attempts")
            }
            DefconError::Overloaded {
                what,
                queue_depth,
                capacity,
            } => write!(f, "{what} overloaded ({queue_depth}/{capacity} queued)"),
            DefconError::DeadlineExceeded {
                what,
                budget_cycles,
            } => {
                write!(
                    f,
                    "{what} deadline exceeded (budget {budget_cycles} cycles)"
                )
            }
        }
    }
}

impl std::error::Error for DefconError {}

impl DefconError {
    /// Wraps an [`std::io::Error`] with the path it hit.
    pub fn io(path: impl Into<String>, e: &std::io::Error) -> Self {
        DefconError::Io {
            path: path.into(),
            detail: e.to_string(),
        }
    }

    /// True for failure classes a caller may sensibly retry or fall back
    /// from (constraint violations, non-finite values, corrupt inputs,
    /// admission rejections); false for programming/environment errors
    /// that will not heal. `DeadlineExceeded` is deliberately **not**
    /// degradable: trying a slower rung can only spend more of a budget
    /// that is already gone.
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            DefconError::Constraint { .. }
                | DefconError::NonFinite { .. }
                | DefconError::NotPositiveDefinite { .. }
                | DefconError::Corrupt { .. }
                | DefconError::Overloaded { .. }
        )
    }

    /// True for failure classes where *re-attempting the same operation
    /// later* can plausibly succeed: transient resource pressure
    /// (`Overloaded`), filesystem flakes (`Io`), and integrity failures a
    /// re-read or re-derivation can heal (`Corrupt`). Everything else is
    /// deterministic on its inputs — retrying re-derives the same failure
    /// — or, for `DeadlineExceeded`, the budget is already spent and
    /// retries can only burn more of it.
    ///
    /// The match is exhaustive on purpose (no `_` arm): a new variant must
    /// pick a retry class here before the crate compiles, so nothing can
    /// silently default to the wrong class.
    pub fn retryable(&self) -> bool {
        match self {
            DefconError::Io { .. }
            | DefconError::Corrupt { .. }
            | DefconError::Overloaded { .. } => true,
            DefconError::Json { .. }
            | DefconError::NonFinite { .. }
            | DefconError::NotPositiveDefinite { .. }
            | DefconError::Constraint { .. }
            | DefconError::InvalidShape { .. }
            | DefconError::Env { .. }
            | DefconError::MissingKey { .. }
            | DefconError::RetriesExhausted { .. }
            | DefconError::DeadlineExceeded { .. } => false,
        }
    }
}

impl From<JsonError> for DefconError {
    fn from(source: JsonError) -> Self {
        DefconError::Json {
            context: "document".to_string(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_every_variant() {
        for e in one_of_each() {
            assert!(!e.to_string().is_empty());
        }
    }

    /// One representative of *every* variant, so classification tests
    /// below cannot silently skip a variant. Kept in the declaration
    /// order of the enum.
    fn one_of_each() -> Vec<DefconError> {
        vec![
            DefconError::Json {
                context: "checkpoint".into(),
                source: JsonError::msg("bad"),
            },
            DefconError::Io {
                path: "/x".into(),
                detail: "denied".into(),
            },
            DefconError::Corrupt {
                what: "checkpoint".into(),
                detail: "crc mismatch".into(),
            },
            DefconError::NonFinite {
                what: "loss".into(),
                step: 3,
            },
            DefconError::NotPositiveDefinite {
                pivot: 2,
                value: -1e-9,
            },
            DefconError::Constraint {
                what: "texture".into(),
                detail: "too many layers".into(),
            },
            DefconError::InvalidShape {
                what: "deformable layer".into(),
                detail: "stride must be positive".into(),
            },
            DefconError::Env {
                var: "DEFCON_THREADS".into(),
                value: "lots".into(),
                expected: "a positive integer",
            },
            DefconError::MissingKey {
                what: "LUT key".into(),
            },
            DefconError::RetriesExhausted {
                what: "training step".into(),
                attempts: 4,
            },
            DefconError::Overloaded {
                what: "serve queue".into(),
                queue_depth: 64,
                capacity: 64,
            },
            DefconError::DeadlineExceeded {
                what: "serve request".into(),
                budget_cycles: 1,
            },
        ]
    }

    /// Exhaustive classification table: every variant's retry class is
    /// pinned explicitly. The helper match below has no wildcard arm, so
    /// adding a variant without extending this test is a compile error —
    /// the class can never default silently.
    #[test]
    fn retryable_classification_is_exhaustive_and_pinned() {
        fn expected(e: &DefconError) -> bool {
            match e {
                // Transient: resource pressure drains, IO flakes pass,
                // corruption heals on re-derivation.
                DefconError::Io { .. }
                | DefconError::Corrupt { .. }
                | DefconError::Overloaded { .. } => true,
                // Deterministic on inputs — a retry re-derives the failure.
                DefconError::Json { .. }
                | DefconError::NonFinite { .. }
                | DefconError::NotPositiveDefinite { .. }
                | DefconError::Constraint { .. }
                | DefconError::InvalidShape { .. }
                | DefconError::Env { .. }
                | DefconError::MissingKey { .. }
                | DefconError::RetriesExhausted { .. } => false,
                // The budget is spent; retrying cannot un-spend it.
                DefconError::DeadlineExceeded { .. } => false,
            }
        }
        let cases = one_of_each();
        assert_eq!(cases.len(), 12, "keep one_of_each in sync with the enum");
        for e in &cases {
            assert_eq!(e.retryable(), expected(e), "retry class of {e}");
        }
        // At least one of each class, so the table cannot degenerate.
        assert!(cases.iter().any(DefconError::retryable));
        assert!(!cases.iter().all(DefconError::retryable));
    }

    #[test]
    fn deadline_exceeded_is_terminal_everywhere() {
        let e = DefconError::DeadlineExceeded {
            what: "serve request".into(),
            budget_cycles: 9000,
        };
        // Non-retryable: the budget is gone.
        assert!(!e.retryable());
        // Non-degradable: the fallback ladder must propagate it instead of
        // spending more budget on a slower rung.
        assert!(!e.is_degradable());
        let msg = e.to_string();
        assert!(msg.contains("deadline exceeded"), "{msg}");
        assert!(msg.contains("9000"), "{msg}");
    }

    #[test]
    fn degradable_classification() {
        assert!(DefconError::NonFinite {
            what: "loss".into(),
            step: 0
        }
        .is_degradable());
        assert!(!DefconError::Env {
            var: "X".into(),
            value: "y".into(),
            expected: "z"
        }
        .is_degradable());
        assert!(DefconError::Overloaded {
            what: "serve queue".into(),
            queue_depth: 8,
            capacity: 8
        }
        .is_degradable());
    }
}
