//! Memory-subsystem microbenchmarks: the access patterns behind Fig. 4.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zllm_ddr::{traffic, AxiConfig, DdrConfig, MemorySystem};
use zllm_layout::weight::{fetch_stream, LayoutScheme, WeightFormat};

fn bench_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("ddr");
    g.sample_size(20);
    g.bench_function("sequential_16MiB", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::kv260();
            black_box(mem.transfer(&traffic::sequential(0, 16 << 20)))
        })
    });
    g.bench_function("random_4096_beats", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::kv260();
            black_box(mem.transfer(&traffic::random_single(7, 4096, 1 << 30)))
        })
    });
    g.finish();
}

/// The fast-path headline: a 1 GiB sequential weight stream priced
/// through the fast paths on every memory preset, against the KV260
/// stream forced down the per-access path.
fn bench_fast_path(c: &mut Criterion) {
    let stream = traffic::sequential(0, 1 << 30);
    let presets = [
        ("ddr4_2400_kv260", DdrConfig::ddr4_2400_kv260()),
        ("lpddr4_2133_ultra96", DdrConfig::lpddr4_2133_ultra96()),
        ("ddr4_2666_zcu102", DdrConfig::ddr4_2666_zcu102()),
        ("lpddr5_orin_nano", DdrConfig::lpddr5_orin_nano()),
        ("lpddr5_6400_embedded", DdrConfig::lpddr5_6400_embedded()),
    ];
    let system = |cfg: &DdrConfig| {
        MemorySystem::new(
            cfg.clone(),
            AxiConfig::kv260(),
            MemorySystem::DEFAULT_LOOKAHEAD,
        )
    };
    let mut g = c.benchmark_group("ddr_fast_path");
    g.sample_size(10);
    for (name, cfg) in &presets {
        g.bench_function(&format!("sequential_1GiB_fast/{name}"), |b| {
            b.iter(|| black_box(system(cfg).transfer(black_box(&stream))))
        });
    }
    let (name, kv260) = &presets[0];
    g.bench_function(&format!("sequential_1GiB_per_access/{name}"), |b| {
        b.iter(|| {
            let mut mem = system(kv260);
            mem.set_fast_path(false);
            black_box(mem.transfer(black_box(&stream)))
        })
    });
    g.finish();
}

fn bench_layout_schemes(c: &mut Criterion) {
    let fmt = WeightFormat::kv260();
    let n_weights = 4096 * 4096;
    let mut g = c.benchmark_group("ddr_layout");
    g.sample_size(15);
    for scheme in LayoutScheme::ALL {
        let stream = fetch_stream(scheme, &fmt, n_weights, 0x8000_0000);
        g.bench_function(scheme.name(), |b| {
            b.iter(|| {
                let mut mem = MemorySystem::kv260();
                black_box(mem.transfer(black_box(&stream)))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_patterns,
    bench_fast_path,
    bench_layout_schemes
);
criterion_main!(benches);
