//! E6 (Property 2.3 / exhaustive soundness): exploration throughput of
//! the model checker on C3 instances, plus its worker scaling on the
//! C5 / Algorithm 2 instance (the largest exhaustive exploration in the
//! suite). The scaling group is the
//! evidence for EXPERIMENTS.md's note that E6/E7 tables are
//! thread-count-independent but their wall-clock is not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftcolor_checker::ModelChecker;
use ftcolor_core::{FiveColoring, SixColoring};
use ftcolor_model::Topology;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_modelcheck");
    g.sample_size(10);
    let topo = Topology::cycle(3).unwrap();

    // Claim check once: safety holds everywhere on C3.
    let o = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
        .explore(|t, outs| t.first_conflict(outs).map(|(a, b)| format!("{a}-{b}")))
        .unwrap();
    assert!(o.safety_violation.is_none());

    g.bench_function("alg1_c3_exhaustive", |b| {
        b.iter(|| {
            ModelChecker::new(&SixColoring, &topo, vec![0, 1, 2])
                .explore(|t, outs| t.first_conflict(outs).map(|(a, b)| format!("{a}-{b}")))
                .unwrap()
        });
    });
    g.bench_function("alg2_c3_exhaustive", |b| {
        b.iter(|| {
            ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
                .explore(|t, outs| t.first_conflict(outs).map(|(a, b)| format!("{a}-{b}")))
                .unwrap()
        });
    });
    g.finish();
}

/// Thread-scaling on C5 / Algorithm 2: identical outcome at every
/// thread count (asserted below), wall-clock should drop with jobs.
fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_parallel_scaling");
    g.sample_size(10);
    let topo = Topology::cycle(5).unwrap();
    let ids = vec![0u64, 1, 2, 3, 4];
    let safety = |t: &Topology, outs: &[Option<u64>]| {
        t.first_conflict(outs).map(|(a, b)| format!("{a}-{b}"))
    };
    // Cap keeps one exploration in benchmark territory (~10^5 configs)
    // while staying deep enough for the frontier to go wide.
    let cap = 120_000;

    let baseline = ModelChecker::new(&FiveColoring, &topo, ids.clone())
        .with_max_configs(cap)
        .with_jobs(1)
        .explore(safety)
        .unwrap();

    for jobs in [1usize, 2, 4, 8] {
        let o = ModelChecker::new(&FiveColoring, &topo, ids.clone())
            .with_max_configs(cap)
            .with_jobs(jobs)
            .explore(safety)
            .unwrap();
        assert_eq!(baseline, o, "outcome must not depend on jobs={jobs}");
        g.bench_with_input(
            BenchmarkId::new("alg2_c5_exhaustive", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    ModelChecker::new(&FiveColoring, &topo, ids.clone())
                        .with_max_configs(cap)
                        .with_jobs(jobs)
                        .explore(safety)
                        .unwrap()
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench, bench_scaling);
criterion_main!(benches);
