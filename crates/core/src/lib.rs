//! # defcon-core
//!
//! The DEFCON public API — the paper's contribution, assembled from the
//! substrates in this workspace:
//!
//! * [`lut`] — the **on-device latency lookup table** the interval search
//!   uses as its speed model (paper §III-A-a: "we build our search
//!   algorithm based on collecting on-device latency and building a lookup
//!   table"). Latencies come from the `defcon-gpusim` simulator.
//! * [`search`] — the **gradient-based interval search** (Algorithm 1):
//!   dual-path supernet training with Gumbel-Softmax mixing, the latency
//!   penalty of Eq. (6)–(8), layer selection by α magnitude, and
//!   fine-tuning of the frozen architecture.
//! * [`autotune`] — the **tile-size autotuner** (paper Fig. 8, ytopt-style
//!   Bayesian optimization with a Gaussian-process surrogate and expected
//!   improvement), plus random- and exhaustive-search baselines.
//! * [`pipeline`] — a configuration facade ([`DefconConfig`]) tying the
//!   optimizations together the way Fig. 3 sequences them: interval search
//!   → lightweight operators → bounded deformation → texel-based
//!   optimization.
//! * [`serve`] — the **throughput-mode simulation service**: a bounded
//!   admission queue over parallel workers with a content-addressed
//!   launch-report cache, exploiting the engine's byte-determinism to
//!   answer repeated requests without re-simulating.
//! * [`chaos`] — seeded **chaos-soak sessions** over the serving layer:
//!   randomized request streams served under an armed fault plan, with a
//!   deterministic summary for invariant and golden checks.
//!
//! Accuracy-side experiments (the YOLACT-style detector, synthetic
//! dataset, mAP) live in `defcon-models`; the reproduction harnesses in
//! `defcon-bench`.

pub mod autotune;
pub mod chaos;
pub mod lut;
pub mod pipeline;
pub mod search;
pub mod serve;

pub use autotune::{AutotuneResult, Autotuner};
pub use lut::{LatencyKey, LatencyLut};
pub use pipeline::DefconConfig;
pub use search::{IntervalSearch, SearchConfig, SearchModel, SearchOutcome};
pub use serve::{RequestPolicy, ServeConfig, ServeDevice, SimRequest, SimResponse, SimServer};
