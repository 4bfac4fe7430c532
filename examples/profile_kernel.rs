//! Profile a custom kernel on the GPU model — the `nvprof`-style workflow
//! a downstream user follows to reason about their own access patterns.
//!
//! ```sh
//! cargo run --release --example profile_kernel
//! ```
//!
//! Implements a toy "gather" kernel two ways — scattered global loads vs.
//! texture fetches — and prints the counters the simulator produces
//! (the same quantities the paper's Fig. 10 plots).

use defcon::gpusim::trace::{BlockTrace, TraceSink};
use defcon::gpusim::LayeredTexture2d;
use defcon::prelude::*;

/// A gather over a 256×256 image: each thread reads a pseudo-random
/// fractional position, either via 4 global loads + software interpolation
/// or via one texture fetch.
struct GatherKernel<'a> {
    tex: Option<LayeredTexture2d<'a>>,
    blocks: usize,
}

impl GatherKernel<'_> {
    fn position(block: usize, warp: usize, lane: usize, i: usize) -> (f32, f32) {
        let h = (block * 131 + warp * 37 + lane * 17 + i * 7) % (254 * 254);
        ((h / 254) as f32 + 0.4, (h % 254) as f32 + 0.6)
    }
}

impl BlockTrace for GatherKernel<'_> {
    fn grid_blocks(&self) -> usize {
        self.blocks
    }
    fn block_threads(&self) -> usize {
        256
    }
    fn label(&self) -> String {
        if self.tex.is_some() {
            "gather_tex"
        } else {
            "gather_sw"
        }
        .into()
    }
    fn trace_block(&self, block: usize, sink: &mut TraceSink) {
        for warp in 0..8 {
            for i in 0..16 {
                match &self.tex {
                    Some(tex) => {
                        let coords = (0..32).map(|lane| Self::position(block, warp, lane, i));
                        sink.tex_fetch_warp_into(tex, 0, coords);
                    }
                    None => {
                        for (oy, ox) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
                            sink.global_load_into((0..32).map(|lane| {
                                let (y, x) = Self::position(block, warp, lane, i);
                                ((y as u64 + oy) * 256 + x as u64 + ox) * 4
                            }));
                        }
                        sink.flop(8 * 32);
                        sink.alu(6 * 32);
                    }
                }
                sink.fma(32);
            }
        }
    }
}

fn main() {
    let gpu = Gpu::new(DeviceConfig::xavier_agx());
    let data = vec![0.5f32; 256 * 256];
    for use_tex in [false, true] {
        let tex = use_tex
            .then(|| LayeredTexture2d::new(&data, 1, 256, 256, 1 << 32, 2048, 32768).unwrap());
        let k = GatherKernel { tex, blocks: 128 };
        let r = gpu.launch(&k);
        println!("== {} ==", r.kernel);
        println!("  time               : {:.3} ms", r.time_ms);
        println!("  MFLOP              : {:.2}", r.counters.mflop());
        println!("  gld requests       : {}", r.counters.gld_requests);
        println!(
            "  gld transactions/rq: {:.2}",
            r.counters.gld_transactions_per_request()
        );
        println!(
            "  gld efficiency     : {:.1} %",
            r.counters.gld_efficiency()
        );
        println!("  tex requests       : {}", r.counters.tex_requests);
        println!("  tex hit rate       : {:.2}", r.counters.tex_hit_rate());
        println!(
            "  DRAM read          : {} KB\n",
            r.counters.dram_read_bytes / 1024
        );
    }
}
