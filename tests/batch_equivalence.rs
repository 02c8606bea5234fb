//! Differential suite: the batch engine vs the sequential executor.
//!
//! The batch engine's contract is *bit-identity*: an instance run
//! through packed slab rows, quantum-sliced visits, and parallel sweeps
//! over shared-cursor chunks must finish with exactly the outputs, activation counts,
//! step count, crash set, and termination kind that the same
//! [`InstanceSpec`] produces on a plain `Execution::run` — at every
//! thread count. This file pins that over
//!
//! * algorithms 1, 2′, 3′ (the wait-free ones — the unpatched 2/3 have
//!   a documented crash livelock and no business in a service fleet),
//! * rings `C3..=C8`,
//! * clean and crashy schedules (synchronous and seeded random
//!   subsets, one victim crashed at a small time),
//! * four seeds each,
//! * `--jobs ∈ {1, 2, 8}` — and the three jobs values must agree with
//!   each other *outcome-for-outcome*, not just with the oracle,
//! * quanta `{1, 3, 8}` — slicing the visit loop differently may move
//!   completion rounds but must not change any execution fact,
//! * an open-loop fleet whose admissions land in the slots of retired
//!   instances — admission indices and rounds travel with the slot,
//! * the lazy admission path (a fresh slot holds identifiers until its
//!   first visit): identifiers above 2^32, fuel 0, crashes at t = 1,
//!   quantum 1, and recorded traces,
//! * the materialized path (`run_materialized`, a live `Execution`
//!   whose report is moved out rather than copied) against a plain
//!   `Execution::run`, traces included.

use ftcolor::batch::{
    run_materialized, BatchConfig, BatchEngine, BatchOutcome, InstanceSpec, Termination,
};
use ftcolor::model::inputs;
use ftcolor::prelude::*;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const FUEL: u64 = 10_000;
const SEEDS: [u64; 4] = [1, 7, 23, 101];

/// The full spec matrix for one ring size: {sync, random} × {clean,
/// one-victim crash} × seeds.
fn specs_for(n: usize) -> Vec<InstanceSpec> {
    let mut specs = Vec::new();
    for &seed in &SEEDS {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(64), seed);
        let crash_victim = ProcessId(seed as usize % n);
        let crash_at = 1 + seed % 4;
        specs.push(InstanceSpec::synchronous(ids.clone(), FUEL));
        specs.push(InstanceSpec::synchronous(ids.clone(), FUEL).with_crash(crash_victim, crash_at));
        specs.push(InstanceSpec::random(
            ids.clone(),
            seed.wrapping_mul(77),
            0.5,
            FUEL,
        ));
        specs.push(
            InstanceSpec::random(ids, seed.wrapping_mul(77), 0.5, FUEL)
                .with_crash(crash_victim, crash_at),
        );
    }
    specs
}

/// Runs every spec through one engine and returns outcomes in
/// admission order.
fn run_batch<A>(
    alg: &A,
    n: usize,
    specs: &[InstanceSpec],
    jobs: usize,
    quantum: u32,
) -> Vec<BatchOutcome<A::Output>>
where
    A: Algorithm<Input = u64> + Sync,
    A::State: Eq + Hash + Clone + Send + Sync,
    A::Reg: Eq + Hash + Clone + Send + Sync,
    A::Output: Eq + Hash + Clone + Send + Sync,
{
    let cfg = BatchConfig {
        jobs,
        quantum,
        record_traces: false,
    };
    run_batch_with(alg, n, specs, cfg)
}

/// [`run_batch`] under any engine configuration.
fn run_batch_with<A>(
    alg: &A,
    n: usize,
    specs: &[InstanceSpec],
    cfg: BatchConfig,
) -> Vec<BatchOutcome<A::Output>>
where
    A: Algorithm<Input = u64> + Sync,
    A::State: Eq + Hash + Clone + Send + Sync,
    A::Reg: Eq + Hash + Clone + Send + Sync,
    A::Output: Eq + Hash + Clone + Send + Sync,
{
    let mut engine = BatchEngine::new(alg, n, cfg);
    for spec in specs {
        engine.admit(spec);
    }
    let collected: Mutex<Vec<BatchOutcome<A::Output>>> = Mutex::new(Vec::new());
    let drained = engine.run_to_completion(FUEL + 16, &|outcome| {
        collected.lock().expect("sink lock").push(outcome);
    });
    assert!(drained, "fleet failed to drain (engine bug)");
    let mut outcomes = collected.into_inner().expect("sink lock");
    outcomes.sort_by_key(|o| o.index);
    assert_eq!(outcomes.len(), specs.len(), "one outcome per instance");
    outcomes
}

/// The core differential check for one algorithm.
fn check_algorithm<A>(alg: &A, label: &str)
where
    A: Algorithm<Input = u64> + Sync,
    A::State: Eq + Hash + Clone + Send + Sync,
    A::Reg: Eq + Hash + Clone + Send + Sync,
    A::Output: Eq + Hash + Clone + Send + Sync + std::fmt::Debug,
{
    for n in 3..=8 {
        let specs = specs_for(n);
        let baseline = run_batch(alg, n, &specs, 1, 8);

        // Oracle: every outcome must be bit-identical to a plain
        // sequential run of the same spec.
        for (spec, outcome) in specs.iter().zip(&baseline) {
            let ctx = format!("{label} C{n} spec#{}", outcome.index);
            match spec.run_sequential(alg) {
                Ok(report) => {
                    assert_eq!(outcome.report(), report, "{ctx}: report mismatch");
                    let expect = if report.crashed.is_empty() {
                        Termination::Returned
                    } else {
                        Termination::Crashed
                    };
                    assert_eq!(outcome.termination, expect, "{ctx}: termination kind");
                }
                Err(_) => {
                    assert_eq!(
                        outcome.termination,
                        Termination::Stalled,
                        "{ctx}: oracle stalled, batch did not"
                    );
                }
            }
        }

        // Thread counts must agree outcome-for-outcome (not merely
        // both-with-oracle: this also pins rounds/latency fields).
        for jobs in [2, 8] {
            let other = run_batch(alg, n, &specs, jobs, 8);
            assert_eq!(baseline, other, "{label} C{n}: jobs=1 vs jobs={jobs}");
        }

        // Quantum slicing may shift completion rounds, never facts.
        for quantum in [1, 3] {
            let sliced = run_batch(alg, n, &specs, 2, quantum);
            for (a, b) in baseline.iter().zip(&sliced) {
                assert_eq!(a.report(), b.report(), "{label} C{n}: quantum {quantum}");
                assert_eq!(
                    a.termination, b.termination,
                    "{label} C{n}: quantum {quantum}"
                );
            }
        }
    }
}

#[test]
fn alg1_batch_matches_sequential() {
    check_algorithm(&SixColoring, "alg1");
}

#[test]
fn alg2p_batch_matches_sequential() {
    check_algorithm(&FiveColoringPatched, "alg2p");
}

#[test]
fn alg3p_batch_matches_sequential() {
    check_algorithm(&FastFiveColoringPatched, "alg3p");
}

/// A fuel so small that instances stall mid-run: the batch engine must
/// classify them exactly like the oracle's `NonTermination` error, and
/// the partial outputs/activations must still match the executor state.
#[test]
fn stalled_instances_match_the_oracle() {
    let alg = &FiveColoringPatched;
    for n in [3usize, 5, 7] {
        let ids = inputs::random_unique(n, 64, 5);
        // Fuel 2: nobody can have returned yet under p=0.5.
        let spec = InstanceSpec::random(ids, 99, 0.5, 2);
        let outcomes = run_batch(alg, n, std::slice::from_ref(&spec), 1, 8);
        assert_eq!(outcomes[0].termination, Termination::Stalled, "C{n}");
        assert!(spec.run_sequential(alg).is_err(), "C{n}: oracle must stall");
        assert_eq!(outcomes[0].time_steps, 2, "C{n}: stalls at the fuel bound");
    }
}

/// An admitted instance waits in its slot as its identifiers, split
/// into a low and a high `u32` word, and its first visit builds the
/// initial configuration from them. Edge cases of that path, each
/// against the oracle at jobs 1 and 3: identifiers at and above 2^32
/// whose order differs from their low words' order (so both words
/// matter), fuel 0 (the first visit stalls), every process crashing
/// at t = 1 (the first visit retires the instance without a step),
/// quantum 1, and recorded traces.
#[test]
fn lazy_admission_edge_cases_match_the_oracle() {
    let alg = &FiveColoringPatched;
    let n = 5;
    let wide = |seed: u64| -> Vec<u64> {
        inputs::random_unique(n, 64, seed)
            .into_iter()
            .enumerate()
            .map(|(i, low)| ((seed * 7 + 3 * i as u64 + 1) % 6) << 32 | low)
            .collect()
    };
    let mut specs = Vec::new();
    for seed in 0..8u64 {
        specs.push(InstanceSpec::random(wide(seed), seed, 0.5, FUEL));
        specs.push(InstanceSpec::synchronous(wide(seed), FUEL).with_crash(ProcessId(2), 3));
        specs.push(InstanceSpec::random(wide(seed), seed, 0.5, 0));
        specs.push(
            (0..n).fold(InstanceSpec::random(wide(seed), seed, 0.5, FUEL), |s, p| {
                s.with_crash(ProcessId(p), 1)
            }),
        );
    }
    let ids_above_2_32 = specs
        .iter()
        .flat_map(|s| &s.ids)
        .any(|&id| id > u32::MAX.into());
    assert!(ids_above_2_32, "the identifiers reach the high word");

    let topo = Topology::cycle(n).expect("C5");
    for (quantum, record_traces) in [(8, false), (1, false), (8, true), (1, true)] {
        for jobs in [1, 3] {
            let ctx = format!("quantum {quantum} traces {record_traces} jobs {jobs}");
            let cfg = BatchConfig {
                jobs,
                quantum,
                record_traces,
            };
            for (spec, outcome) in specs.iter().zip(run_batch_with(alg, n, &specs, cfg)) {
                let ctx = format!("{ctx} spec#{}", outcome.index);
                let mut exec = Execution::new(alg, &topo, spec.ids.clone());
                exec.record_trace(true);
                match exec.run(spec.schedule(), spec.fuel) {
                    Ok(report) => {
                        assert_eq!(outcome.report(), report, "{ctx}: report mismatch");
                        let expect = if report.crashed.is_empty() {
                            Termination::Returned
                        } else {
                            Termination::Crashed
                        };
                        assert_eq!(outcome.termination, expect, "{ctx}: termination kind");
                    }
                    Err(_) => assert_eq!(outcome.termination, Termination::Stalled, "{ctx}"),
                }
                let trace = record_traces.then(|| exec.recorded().to_vec());
                assert_eq!(outcome.trace, trace, "{ctx}: trace");
                if spec.fuel == 0 || spec.crashes.len() == n {
                    assert_eq!(outcome.time_steps, 0, "{ctx}: retired on the first visit");
                    assert_eq!(outcome.completed_round, 1, "{ctx}");
                }
            }
        }
    }
}

/// An open-loop fleet: bursts of admissions between rounds while
/// earlier instances retire, so retired slots are handed to new
/// instances many times over. Every outcome must still match the
/// oracle, carry its own admission index and rounds, and the slab must
/// never hold more slots than the most instances ever in flight.
#[test]
fn open_loop_fleet_reuses_slots_and_keeps_outcomes_exact() {
    let alg = &FiveColoringPatched;
    let n = 5;
    let quantum = 2;
    let specs: Vec<InstanceSpec> = (0..600u64)
        .map(|k| {
            let ids = inputs::random_unique(n, 64, k);
            // Every 50th instance stalls on a tiny fuel.
            let fuel = if k % 50 == 7 { 3 } else { FUEL };
            let spec = if k % 4 == 0 {
                InstanceSpec::synchronous(ids, fuel)
            } else {
                InstanceSpec::random(ids, k, 0.5, fuel)
            };
            if k % 3 == 0 {
                spec.with_crash(ProcessId(k as usize % n), 1 + k % 5)
            } else {
                spec
            }
        })
        .collect();
    let bursts = [3, 0, 7, 1, 5, 2, 0, 0];

    let mut runs = Vec::new();
    for jobs in [1, 3] {
        let mut engine = BatchEngine::new(
            alg,
            n,
            BatchConfig {
                jobs,
                quantum,
                record_traces: false,
            },
        );
        let collected = Mutex::new(Vec::new());
        let round_now = AtomicU64::new(0);
        let sink = |outcome: BatchOutcome<u64>| {
            assert_eq!(
                outcome.completed_round,
                round_now.load(Ordering::Relaxed),
                "instance {} reports the round that retired it",
                outcome.index
            );
            collected.lock().expect("sink lock").push(outcome);
        };
        let mut admitted_round = Vec::new();
        let mut peak_in_flight = 0;
        while admitted_round.len() < specs.len() || engine.in_flight() > 0 {
            let burst = bursts[engine.rounds() as usize % bursts.len()];
            for _ in 0..burst.min(specs.len() - admitted_round.len()) {
                let index = engine.admit(&specs[admitted_round.len()]);
                assert_eq!(index, admitted_round.len(), "admission indices are dense");
                admitted_round.push(engine.rounds());
            }
            peak_in_flight = peak_in_flight.max(engine.in_flight());
            assert!(
                engine.slots() <= peak_in_flight,
                "jobs={jobs}: {} slots for a peak of {peak_in_flight} in flight",
                engine.slots()
            );
            round_now.store(engine.rounds() + 1, Ordering::Relaxed);
            engine.run_round(&sink);
            assert!(engine.rounds() < 10 * FUEL, "fleet failed to drain");
        }
        assert_eq!(engine.admitted(), specs.len());
        assert!(
            engine.slots() * 4 < specs.len(),
            "jobs={jobs}: slots were reused ({} slots)",
            engine.slots()
        );

        let mut outcomes = collected.into_inner().expect("sink lock");
        outcomes.sort_by_key(|o| o.index);
        assert_eq!(outcomes.len(), specs.len(), "one outcome per instance");
        for (k, (spec, outcome)) in specs.iter().zip(&outcomes).enumerate() {
            let ctx = format!("jobs={jobs} instance {k}");
            assert_eq!(outcome.index, k, "{ctx}");
            assert_eq!(outcome.admitted_round, admitted_round[k], "{ctx}");
            // The final visit is the one whose loop iteration after the
            // last step ends the run.
            assert_eq!(
                outcome.completed_round - outcome.admitted_round,
                (outcome.time_steps + 1).div_ceil(u64::from(quantum)),
                "{ctx}: latency"
            );
            match spec.run_sequential(alg) {
                Ok(report) => {
                    assert_eq!(outcome.report(), report, "{ctx}: report mismatch");
                    let expect = if report.crashed.is_empty() {
                        Termination::Returned
                    } else {
                        Termination::Crashed
                    };
                    assert_eq!(outcome.termination, expect, "{ctx}: termination kind");
                }
                Err(_) => assert_eq!(outcome.termination, Termination::Stalled, "{ctx}"),
            }
        }
        runs.push(outcomes);
    }
    assert_eq!(runs[0], runs[1], "jobs=1 vs jobs=3");
}

/// A long open-loop stream of wide identifiers (universe 2^40, so
/// nearly every instance's states are its own) at quantum 1 and 2, so
/// instances stay parked across several rounds and hence several
/// compactions, with crashes and stalls mixed in. Every outcome must
/// match the oracle at jobs 1 and 3, and the interners must follow what
/// is in flight: each round's compaction drops what no parked instance
/// uses, so no component ever holds more than `2n` values per instance
/// at the peak in flight (`n` for the parked rows, `n` for what a
/// round interns on top), however many instances were admitted.
#[test]
fn long_streams_keep_interned_values_to_what_is_in_flight() {
    let alg = &FiveColoringPatched;
    let n = 5;
    let specs: Vec<InstanceSpec> = (0..800u64)
        .map(|k| {
            let ids = inputs::random_unique(n, 1 << 40, k);
            // Every 40th instance stalls on a small fuel.
            let fuel = if k % 40 == 11 { 5 } else { FUEL };
            let spec = if k % 5 == 0 {
                InstanceSpec::synchronous(ids, fuel)
            } else {
                InstanceSpec::random(ids, k, 0.5, fuel)
            };
            if k % 3 == 0 {
                spec.with_crash(ProcessId(k as usize % n), 1 + k % 7)
            } else {
                spec
            }
        })
        .collect();
    let wide = specs.iter().flat_map(|s| &s.ids);
    assert!(
        2 * wide.clone().filter(|&&id| id > u32::MAX.into()).count() > wide.count(),
        "most identifiers are above 2^32"
    );
    let bursts = [4, 1, 6, 0, 3, 9, 2, 0, 5];

    let mut runs = Vec::new();
    for quantum in [1, 2] {
        for jobs in [1, 3] {
            let ctx = format!("quantum {quantum} jobs {jobs}");
            let mut engine = BatchEngine::new(
                alg,
                n,
                BatchConfig {
                    jobs,
                    quantum,
                    record_traces: false,
                },
            );
            let collected = Mutex::new(Vec::new());
            let sink = |outcome: BatchOutcome<u64>| collected.lock().expect("sink").push(outcome);
            let (mut admitted, mut peak_in_flight) = (0, 0);
            while admitted < specs.len() || engine.in_flight() > 0 {
                let burst = bursts[engine.rounds() as usize % bursts.len()];
                for spec in &specs[admitted..(admitted + burst).min(specs.len())] {
                    engine.admit(spec);
                    admitted += 1;
                }
                peak_in_flight = peak_in_flight.max(engine.in_flight());
                engine.run_round(&sink);
                let (s, r, o) = engine.interned_counts();
                let bound = 2 * n * peak_in_flight;
                assert!(
                    s <= bound && r <= bound && o <= bound,
                    "{ctx} round {}: interned ({s}, {r}, {o}) above {bound} \
                     for a peak of {peak_in_flight} in flight",
                    engine.rounds()
                );
                assert!(engine.rounds() < 10 * FUEL, "{ctx}: fleet failed to drain");
            }
            assert!(
                engine.rounds() > 2 * bursts.len() as u64,
                "{ctx}: a long stream"
            );

            let mut outcomes = collected.into_inner().expect("sink");
            outcomes.sort_by_key(|o| o.index);
            assert_eq!(
                outcomes.len(),
                specs.len(),
                "{ctx}: one outcome per instance"
            );
            let mut kinds = Vec::new();
            for (spec, outcome) in specs.iter().zip(&outcomes) {
                let ctx = format!("{ctx} instance {}", outcome.index);
                match spec.run_sequential(alg) {
                    Ok(report) => {
                        assert_eq!(outcome.report(), report, "{ctx}: report mismatch");
                        let expect = if report.crashed.is_empty() {
                            Termination::Returned
                        } else {
                            Termination::Crashed
                        };
                        assert_eq!(outcome.termination, expect, "{ctx}: termination kind");
                    }
                    Err(_) => assert_eq!(outcome.termination, Termination::Stalled, "{ctx}"),
                }
                if !kinds.contains(&outcome.termination) {
                    kinds.push(outcome.termination);
                }
            }
            assert_eq!(
                kinds.len(),
                3,
                "{ctx}: returns, crashes and stalls all occur"
            );
            let parked_long = outcomes
                .iter()
                .filter(|o| o.completed_round - o.admitted_round > 2)
                .count();
            assert!(
                parked_long > 0,
                "{ctx}: instances stay parked across rounds"
            );
            runs.push(outcomes);
        }
    }
    assert_eq!(runs[0], runs[1], "quantum 1: jobs=1 vs jobs=3");
    assert_eq!(runs[2], runs[3], "quantum 2: jobs=1 vs jobs=3");
}

/// `run_materialized` on `spec` against `Execution::run` on the same
/// schedule: termination, outputs, activations, time steps, crashed set
/// and (when recorded) the resolved activation sets.
fn check_materialized<A>(alg: &A, spec: &InstanceSpec, record: bool, ctx: &str) -> Termination
where
    A: Algorithm<Input = u64>,
    A::State: Eq + Hash,
    A::Reg: Eq + Hash,
    A::Output: Eq + Hash + Clone + std::fmt::Debug,
{
    let quantum = 3;
    let outcome = run_materialized(alg, spec, quantum, record);

    let topo = Topology::cycle(spec.n()).expect("a ring");
    let mut exec = Execution::new(alg, &topo, spec.ids.clone());
    exec.record_trace(record);
    let (termination, report) = match exec.run(spec.schedule(), spec.fuel) {
        Ok(report) if report.crashed.is_empty() => (Termination::Returned, report),
        Ok(report) => (Termination::Crashed, report),
        Err(ModelError::NonTermination { .. }) => (
            Termination::Stalled,
            ExecutionReport {
                outputs: exec.outputs().to_vec(),
                activations: (0..spec.n())
                    .map(|i| exec.activation_count(ProcessId(i)))
                    .collect(),
                time_steps: exec.time(),
                crashed: Vec::new(),
            },
        ),
        Err(other) => panic!("{ctx}: unexpected {other}"),
    };
    assert_eq!(outcome.termination, termination, "{ctx}: termination");
    assert_eq!(outcome.report(), report, "{ctx}: report");
    assert_eq!(
        outcome.trace,
        record.then(|| exec.recorded().to_vec()),
        "{ctx}: trace"
    );
    assert_eq!(outcome.index, 0, "{ctx}");
    assert_eq!(outcome.admitted_round, 0, "{ctx}");
    assert_eq!(
        outcome.completed_round,
        report.time_steps.div_ceil(u64::from(quantum)),
        "{ctx}: completed round"
    );
    termination
}

/// The materialized path over {alg1, alg2′, alg3′} × {synchronous,
/// random} × {clean, crash overlay} × trace recording {on, off}, plus a
/// fuel-starved instance that must come back `Stalled`.
#[test]
fn materialized_runs_match_the_executor() {
    fn grid<A>(alg: &A, label: &str)
    where
        A: Algorithm<Input = u64>,
        A::State: Eq + Hash,
        A::Reg: Eq + Hash,
        A::Output: Eq + Hash + Clone + std::fmt::Debug,
    {
        let mut seen = Vec::new();
        for n in [3usize, 8, 61] {
            let ids = inputs::random_unique(n, 1 << 20, n as u64);
            let victim = ProcessId(n / 2);
            let specs = [
                ("sync", InstanceSpec::synchronous(ids.clone(), FUEL)),
                (
                    "sync+crash",
                    InstanceSpec::synchronous(ids.clone(), FUEL).with_crash(victim, 2),
                ),
                ("random", InstanceSpec::random(ids.clone(), 5, 0.5, FUEL)),
                (
                    "random+crash",
                    InstanceSpec::random(ids.clone(), 5, 0.5, FUEL).with_crash(victim, 2),
                ),
            ];
            for (kind, spec) in &specs {
                for record in [false, true] {
                    let ctx = format!("{label} C{n} {kind} record={record}");
                    seen.push(check_materialized(alg, spec, record, &ctx));
                }
            }
        }
        for kind in [Termination::Returned, Termination::Crashed] {
            assert!(seen.contains(&kind), "{label}: no {kind:?} instance");
        }
    }
    grid(&SixColoring, "alg1");
    grid(&FiveColoringPatched, "alg2p");
    grid(&FastFiveColoringPatched, "alg3p");

    let starved = InstanceSpec::random(inputs::random_unique(7, 64, 5), 99, 0.5, 2);
    for record in [false, true] {
        let termination = check_materialized(&FiveColoringPatched, &starved, record, "stalled");
        assert_eq!(termination, Termination::Stalled);
    }
}
