//! E12 (counterexample shrinking): throughput of the delta-debugging
//! shrinker on the two canonical witnesses — the EagerMis C4 safety
//! violation and the Algorithm 2 C3 crash livelock — plus job-scaling
//! of the parallel candidate evaluator on a noisy (tail-padded)
//! safety witness, where candidate batches are large enough for the
//! workers to matter. The shrunk result is identical at every jobs
//! value (asserted below); only wall-clock may change.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftcolor_checker::{ModelChecker, Shrinker};
use ftcolor_core::mis::{mis_violation, EagerMis};
use ftcolor_core::{ring_safety, FiveColoring};
use ftcolor_model::schedule::ActivationSet;
use ftcolor_model::Topology;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_shrink");
    g.sample_size(20);

    // EagerMis C4 safety witness, straight from the checker.
    let topo4 = Topology::cycle(4).unwrap();
    let ids4 = vec![5u64, 9, 2, 1];
    let violation = ModelChecker::new(&EagerMis, &topo4, ids4.clone())
        .explore(mis_violation)
        .unwrap()
        .safety_violation
        .expect("the In/In violation");
    g.bench_function("eager_mis_c4_safety", |b| {
        b.iter(|| {
            Shrinker::new(&EagerMis, &topo4, ids4.clone())
                .shrink_safety(&violation.schedule, &mis_violation)
                .unwrap()
        });
    });

    // Alg2 C3 livelock witness.
    let topo3 = Topology::cycle(3).unwrap();
    let ids3 = vec![0u64, 1, 2];
    let livelock = ModelChecker::new(&FiveColoring, &topo3, ids3.clone())
        .explore(ring_safety(&FiveColoring))
        .unwrap()
        .livelock
        .expect("the C3 livelock");
    g.bench_function("alg2_c3_livelock", |b| {
        b.iter(|| {
            Shrinker::new(&FiveColoring, &topo3, ids3.clone())
                .shrink_livelock(&livelock)
                .unwrap()
        });
    });
    g.finish();
}

/// Job-scaling on a deliberately noisy witness: 40 synchronous padding
/// steps around the real violation give the ddmin and slot passes large
/// candidate batches to evaluate in parallel.
fn bench_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_shrink_scaling");
    g.sample_size(10);
    let topo = Topology::cycle(4).unwrap();
    let ids = vec![5u64, 9, 2, 1];
    let violation = ModelChecker::new(&EagerMis, &topo, ids.clone())
        .explore(mis_violation)
        .unwrap()
        .safety_violation
        .expect("the In/In violation");
    let mut noisy = violation.schedule.clone();
    noisy.extend(std::iter::repeat_n(ActivationSet::All, 40));

    let baseline = Shrinker::new(&EagerMis, &topo, ids.clone())
        .shrink_safety(&noisy, &mis_violation)
        .unwrap();

    for jobs in [1usize, 2, 4, 8] {
        let out = Shrinker::new(&EagerMis, &topo, ids.clone())
            .with_jobs(jobs)
            .shrink_safety(&noisy, &mis_violation)
            .unwrap();
        assert_eq!(out.schedule, baseline.schedule, "jobs={jobs}");
        assert_eq!(out.stats, baseline.stats, "jobs={jobs}");
        g.bench_with_input(BenchmarkId::new("noisy_mis_c4", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                Shrinker::new(&EagerMis, &topo, ids.clone())
                    .with_jobs(jobs)
                    .shrink_safety(&noisy, &mis_violation)
                    .unwrap()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench, bench_scaling);
criterion_main!(benches);
