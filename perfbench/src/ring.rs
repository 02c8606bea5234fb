//! `ring`: `run_materialized` on Algorithm 3′ (`alg3p`), one
//! synchronous ring of millions of processes with a seeded identifier
//! permutation — the `O(log* n)` regime, on a live `Execution`.

use crate::spans::Recorder;
use crate::{
    bytes_per, coloring_failures, fnv, int, median, peak_rss_kib, rss_kib, text, timed,
    timed_setup, Rep, Scale, Work, FNV_BASIS,
};
use ftcolor_batch::{run_materialized, InstanceSpec, Termination};
use ftcolor_core::FastFiveColoringPatched;
use ftcolor_model::{inputs, ActivationSet, Execution, Topology};
use std::time::Instant;

/// Colors of Algorithm 3′.
const PALETTE: u64 = 5;

/// Per-instance fuel (far above the `O(log* n)` steps needed).
const FUEL: u64 = 100_000;

/// Latency resolution passed to `run_materialized`.
const QUANTUM: u32 = 8;

/// Synchronous steps timed by the traced run's step probe.
const PROBE_STEPS: usize = 3;

/// Ring size at `scale`.
pub fn ring_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 500_000,
        Scale::Tiny => 2_000,
    }
}

/// One repetition of `ring`.
pub fn run(seed: u64, scale: Scale, traced: bool) -> Rep {
    let alg = FastFiveColoringPatched;
    let n = ring_size(scale);
    let (setup_s, spec) =
        timed_setup(|| InstanceSpec::synchronous(inputs::random_permutation(n, seed), FUEL));

    let rss_before = rss_kib();
    let mut rec = Recorder::new();
    let (outcome, wall_s) = if traced {
        let span = rec.open("batch.engine.materialized");
        let outcome = run_materialized(&alg, &spec, QUANTUM, false);
        rec.close(span);
        (
            outcome,
            rec.total_ns("batch.engine.materialized") as f64 / 1e9,
        )
    } else {
        timed(|| run_materialized(&alg, &spec, QUANTUM, false))
    };
    let peak_kib = peak_rss_kib();

    let failed = coloring_failures(&outcome.outputs, PALETTE, |_| false);
    let oracle_error = (failed > 0 || outcome.termination != Termination::Returned).then(|| {
        format!(
            "ring: {:?}, {failed} processes unreturned, improper or off-palette",
            outcome.termination
        )
    });
    let activations: u64 = outcome.activations.iter().sum();
    let digest = outcome
        .outputs
        .iter()
        .fold(FNV_BASIS, |h, c| fnv(h, c.map_or(0, |c| c + 1)));

    let mut layers = Vec::new();
    if traced {
        layers = vec![
            ("model.executor.step_ns", step_probe(&alg, &spec)),
            ("model.executor.activations", activations as f64),
            ("batch.engine.materialized_s", wall_s),
            ("batch.engine.time_steps", outcome.time_steps as f64),
            (
                "batch.engine.bytes_per_process",
                bytes_per(rss_before, peak_kib, n as u64),
            ),
        ];
    }

    Rep {
        workload: "ring",
        seed,
        traced,
        params: vec![
            ("algorithm", text("alg3p")),
            ("n", int(n as u64)),
            ("ids", text("random_permutation(n, seed)")),
            ("sched", text("sync")),
            ("fuel", int(FUEL)),
            ("quantum", int(u64::from(QUANTUM))),
            ("jobs", int(1)),
        ],
        setup_s,
        wall_s,
        peak_rss_kib: peak_kib,
        ops: n as u64,
        failed,
        oracle_error,
        det: vec![
            ("time_steps", int(outcome.time_steps)),
            ("activations", int(activations)),
            ("outputs_digest", text(format!("{digest:016x}"))),
        ],
        work: Work {
            colorings: 1,
            configs: outcome.time_steps,
            processes: n as u64,
            events: activations,
        },
        layers,
        spans: rec.into_spans(),
    }
}

/// Median nanoseconds of one synchronous `Execution::step_with` on the
/// workload's ring (one call steps every working process).
fn step_probe(alg: &FastFiveColoringPatched, spec: &InstanceSpec) -> f64 {
    let topo = Topology::cycle(spec.n()).expect("n >= 3");
    let mut exec = Execution::new(alg, &topo, spec.ids.clone());
    let mut samples: Vec<f64> = (0..PROBE_STEPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(exec.step_with(&ActivationSet::All));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}
