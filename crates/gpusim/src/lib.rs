//! # defcon-gpusim
//!
//! A warp-level GPU timing simulator purpose-built to reproduce the
//! *microarchitectural* effects the DEFCON paper exploits:
//!
//! * a **memory coalescer** that converts each warp's 32 lane addresses into
//!   32-byte sector transactions (the quantity `nvprof` reports as
//!   `gld_transactions`, and from which `gld_efficiency` is derived),
//! * set-associative, LRU **L1 / L2 / texture caches** with a
//!   bandwidth-limited DRAM behind them,
//! * a **texture unit** implementing *2-D layered textures* in a
//!   block-linear texel layout with border addressing (out-of-bounds
//!   texels read as zero) and hardware bilinear filtering at full
//!   (`tex2D`) or reduced (`tex2D++`) filter precision,
//! * a **roofline-with-latency** timing model per thread block: block time
//!   is the max of its compute-, memory- and texture-pipe occupancies plus
//!   exposed latency scaled by warp-level parallelism, and kernel time is
//!   block time integrated over SM waves.
//!
//! Device presets model the two boards in the paper's evaluation: the
//! NVIDIA Jetson AGX Xavier ([`DeviceConfig::xavier_agx`]) and the RTX
//! 2080 Ti ([`DeviceConfig::rtx2080ti`]).
//!
//! The simulator is *trace driven*: kernels (see `defcon-kernels`) describe
//! each thread block's work through a [`trace::TraceSink`]; the engine
//! replays the trace through the memory system and integrates time. For
//! large grids a deterministic stratified sample of blocks is simulated and
//! scaled ([`engine::SamplePolicy`]).
//!
//! Launches run on [`engine::SamplePolicy::threads`] worker threads
//! (default `DEFCON_THREADS`, else serial) under a determinism contract —
//! one thread is byte-identical to [`engine::Gpu::launch_serial`], any
//! fixed thread count is reproducible, and multi-threaded cycle estimates
//! stay within 1 % of serial. See the [`engine`] module docs.
//!
//! This is a *model*, not a cycle-accurate twin: absolute times are
//! approximate, but the mechanisms that differentiate software bilinear
//! interpolation from texture-hardware sampling — extra scattered global
//! loads, extra FLOPs, coalescing behaviour, dedicated texture cache and
//! filter pipes — are all represented explicitly, which is what makes the
//! paper's comparisons reproducible in shape.

pub mod cache;
pub mod coalesce;
pub mod device;
pub mod engine;
pub mod report;
pub mod report_cache;
pub mod texture;
pub mod trace;

pub use device::DeviceConfig;
pub use engine::{default_threads, DeadlineBudget, Gpu, SamplePolicy};
pub use report::{Counters, KernelReport};
pub use report_cache::ReportCache;
pub use texture::LayeredTexture2d;
pub use trace::{BlockTrace, TraceSink};
