//! Texture-path microbenchmarks: fetch throughput of the layered-texture
//! model and cache behaviour under 2-D vs. scattered walks.

use defcon_gpusim::cache::Cache;
use defcon_gpusim::device::DeviceConfig;
use defcon_gpusim::texture::LayeredTexture2d;
use defcon_support::bench::Bench;

fn bench_fetch(bench: &mut Bench) {
    let data: Vec<f32> = (0..256 * 256).map(|v| v as f32).collect();
    let mut group = bench.group("texture_fetch");
    for (name, frac_bits) in [("fp32", 23u32), ("fp16", 8)] {
        let mut tex = LayeredTexture2d::new(1, 256, 256, 0, 2048, 32768).unwrap();
        tex.frac_bits = frac_bits;
        group.bench_with_input(name, &tex, |b, tex| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..1000 {
                    let y = (i % 250) as f32 + 0.37;
                    let x = ((i * 7) % 250) as f32 + 0.61;
                    acc += tex.fetch(&data, 0, y, x).value;
                }
                acc
            });
        });
    }
    group.finish();
}

fn bench_cache_walks(bench: &mut Bench) {
    let cfg = DeviceConfig::xavier_agx();
    let mut group = bench.group("tex_cache_walk");
    group.bench_function("sequential_2d", |b| {
        b.iter(|| {
            let mut cache = Cache::new(cfg.tex_cache);
            for y in 0..64u64 {
                for x in 0..64u64 {
                    cache.access_line(y * 8 + x / 8);
                }
            }
            cache.hit_rate()
        });
    });
    group.bench_function("scattered", |b| {
        b.iter(|| {
            let mut cache = Cache::new(cfg.tex_cache);
            for i in 0..4096u64 {
                cache.access_line((i * 2654435761) % 100_000);
            }
            cache.hit_rate()
        });
    });
    group.finish();
}

fn main() {
    let mut bench = Bench::from_args();
    bench_fetch(&mut bench);
    bench_cache_walks(&mut bench);
    bench.finish();
}
