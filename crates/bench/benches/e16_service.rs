//! E16 (batch service): Criterion timings for the struct-of-arrays
//! batch engine — a burst fleet of small instances through the packed
//! slab path, and a mid-sized synchronous ring through the
//! materialized path. The headline scales (1M fleet, 10M ring) are
//! `ftcolor serve` runs recorded in EXPERIMENTS.md §E16; these benches
//! keep the same code paths honest at Criterion-friendly sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftcolor_batch::{run_service, ServiceConfig, ServiceSummary};
use ftcolor_core::{FastFiveColoringPatched, FiveColoringPatched};

/// A single-round burst of `instances` `C5` instances (Algorithm 2′,
/// random-subset schedules, 5% crash noise), all in flight at once.
fn fleet(instances: u64) -> ServiceSummary {
    let cfg = ServiceConfig {
        n: 5,
        instances,
        rate: 1e12,
        seed: 2022,
        sync: false,
        p: 0.5,
        crash_prob: 0.05,
        crash_horizon: 8,
        universe: 64,
        fuel: 100_000,
        quantum: 8,
        jobs: 0,
    };
    run_service(
        &FiveColoringPatched,
        "alg2p",
        5,
        |c: &u64| *c as usize,
        &cfg,
    )
    .0
}

/// One synchronous ring of size `n` on the materialized path
/// (Algorithm 3′, seeded identifier permutation).
fn ring(n: usize) -> ServiceSummary {
    let cfg = ServiceConfig {
        n,
        instances: 1,
        rate: 1.0,
        seed: 7,
        sync: true,
        p: 0.5,
        crash_prob: 0.0,
        crash_horizon: 8,
        universe: n as u64,
        fuel: 100_000,
        quantum: 8,
        jobs: 1,
    };
    run_service(
        &FastFiveColoringPatched,
        "alg3p",
        5,
        |c: &u64| *c as usize,
        &cfg,
    )
    .0
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_service");
    g.sample_size(10);

    // Claim check once: both workloads finish valid.
    let f = fleet(1_000);
    assert!(f.valid && f.completed == 1_000, "{f:?}");
    let r = ring(10_000);
    assert!(r.valid && r.completed == 1, "{r:?}");

    for instances in [1_000u64, 10_000] {
        g.bench_with_input(
            BenchmarkId::new("fleet_c5_burst", instances),
            &instances,
            |b, &instances| b.iter(|| fleet(instances)),
        );
    }

    for n in [10_000usize, 100_000] {
        g.bench_with_input(BenchmarkId::new("ring_logstar_sync", n), &n, |b, &n| {
            b.iter(|| ring(n));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
