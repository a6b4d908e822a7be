//! Criterion: batch scanning — the serial `analyze` loop vs the
//! [`leishen::ScanEngine`] over the 22 known attacks, both cold-cache and
//! steady-state (shared `TagCache` kept warm across batches).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use leishen::{DetectorConfig, LeiShen, ScanEngine, TagCache};
use leishen_bench::known_attack_world;

fn bench_scan(c: &mut Criterion) {
    let (world, attacks) = known_attack_world();
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let detector = LeiShen::new(DetectorConfig::paper());
    let records: Vec<_> = attacks
        .iter()
        .map(|a| world.chain.replay(a.tx).expect("recorded"))
        .collect();

    let mut group = c.benchmark_group("scan");
    group.throughput(Throughput::Elements(records.len() as u64));

    group.bench_function("serial_loop", |b| {
        b.iter(|| {
            let analyses: Vec<_> = records
                .iter()
                .map(|record| detector.analyze(record, &view))
                .collect();
            std::hint::black_box(analyses)
        })
    });

    group.bench_function("engine_cold_cache", |b| {
        let engine = ScanEngine::new(4);
        b.iter(|| std::hint::black_box(engine.scan(&detector, &records, &view, &TagCache::new())))
    });

    group.bench_function("engine_warm_cache", |b| {
        let engine = ScanEngine::new(4);
        let cache = TagCache::new();
        std::hint::black_box(engine.scan(&detector, &records, &view, &cache));
        b.iter(|| {
            std::hint::black_box(engine.scan(&detector, &records, &view, &cache))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    // CI-friendly settings, matching the other benches in this crate.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_scan
}
criterion_main!(benches);
