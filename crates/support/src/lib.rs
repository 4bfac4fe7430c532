//! # defcon-support
//!
//! In-workspace, zero-dependency replacements for the external crates the
//! DEFCON reproduction used to pull from crates.io. The build must succeed
//! on a machine with an **empty registry cache** (`cargo build --offline`),
//! so everything the workspace needs beyond `std` lives here:
//!
//! * [`rng`] — seedable xoshiro256** RNG with `gen_range`, normal-sampling
//!   support and slice shuffling (replaces `rand`);
//! * [`par`] — scoped-thread `par_chunks_mut` parallel map with
//!   deterministic chunk assignment (replaces `rayon`);
//! * [`json`] — a small JSON value type, writer and parser plus the
//!   [`json::ToJson`] trait for hand-written impls (replaces
//!   `serde`/`serde_json`);
//! * [`prop`] — a seeded property-testing harness with reproducible
//!   failing-case reports (replaces `proptest`);
//! * [`bench`] — a wall-clock micro-benchmark harness for the
//!   `harness = false` bench binaries (replaces `criterion`);
//! * [`lanebuf`] — a fixed-capacity, stack-allocated buffer for warp-level
//!   events (the zero-allocation trace hot path, replaces ad-hoc `Vec`s);
//! * [`testalloc`] — a per-thread counting global allocator for
//!   allocation-budget tests.
//!
//! Robustness layer (shared by every crate in the stack):
//!
//! * [`error`] — the workspace-wide typed error, [`error::DefconError`];
//! * [`fault`] — seeded, deterministic fault injection behind named fault
//!   points (zero cost disarmed, byte-reproducible armed);
//! * [`env`] — the single parser for the `DEFCON_*` environment switches,
//!   rejecting malformed values with a clear error;
//! * [`ckpt`] — atomic (write-temp + rename), CRC-framed checkpoint IO
//!   with corrupt-file recovery;
//! * [`obs`] — deterministic observability: hierarchical spans on a
//!   logical clock, a typed counter/gauge registry, and Chrome-trace /
//!   metrics-snapshot exporters (zero cost disarmed, byte-reproducible
//!   armed);
//! * [`retry`] — deterministic retry scheduling: capped exponential
//!   backoff with seeded jitter, charged in virtual cycles instead of
//!   wall-clock sleeps;
//! * [`breaker`] — a closed/open/half-open circuit breaker whose cooldown
//!   counts consultations (virtual time), built on a pure, total
//!   transition function with an exhaustively-enumerable edge set.
//!
//! Design rule: these are *replacements for the slice of API this
//! workspace uses*, not general-purpose rewrites. Determinism outranks
//! statistical or ergonomic perfection everywhere — the simulator's claims
//! are only checkable if two runs with the same seed produce byte-identical
//! reports.

pub mod bench;
pub mod breaker;
pub mod ckpt;
pub mod env;
pub mod error;
pub mod fault;
pub mod json;
pub mod lanebuf;
pub mod obs;
pub mod par;
pub mod prop;
pub mod retry;
pub mod rng;
pub mod testalloc;
