//! Property-based tests across the whole stack: random rings, random
//! identifier assignments, random (seeded) schedules — safety must hold
//! everywhere, and the structural invariants of the paper must never
//! break.

use ftcolor::checker::chains::ChainAnalysis;
use ftcolor::model::inputs;
use ftcolor::model::trace::Trace;
use ftcolor::prelude::*;
use proptest::prelude::*;

/// A random ring instance: size, unique ids, schedule seed & density.
fn instance() -> impl Strategy<Value = (usize, u64, u64)> {
    (3usize..24, 0u64..u64::MAX / 2, 0u64..10_000)
}

/// A pseudo-random trace over `n` processes, derived from `seed` with a
/// splitmix-style generator: mixes `All` steps, solos, and arbitrary
/// subsets (duplicates included — `ActivationSet::of` normalizes).
fn random_trace(n: usize, len: usize, seed: u64) -> Trace {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let steps = (0..len)
        .map(|_| match next() % 4 {
            0 => ActivationSet::All,
            1 => ActivationSet::solo(ProcessId(next() as usize % n)),
            _ => {
                let k = 1 + next() as usize % n;
                ActivationSet::of((0..k).map(|_| ProcessId(next() as usize % n)))
            }
        })
        .collect();
    Trace::new(n, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg1_always_valid((n, idseed, schedseed) in instance()) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&SixColoring, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.45), 1_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.outputs.iter().flatten().all(|c| c.weight() <= 2));
        prop_assert!(report.max_activations() <= (3 * n as u64) / 2 + 4);
    }

    #[test]
    fn alg2_always_valid((n, idseed, schedseed) in instance()) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FiveColoring, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.45), 1_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.outputs.iter().flatten().all(|&c| c <= 4));
        prop_assert!(report.max_activations() <= 3 * n as u64 + 8);
    }

    #[test]
    fn alg3_always_valid_and_identifiers_stay_proper((n, idseed, schedseed) in instance()) {
        let ids = inputs::random_unique(n, 1 << 40, idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FastFiveColoring, &topo, ids);
        let mut sched = RandomSubset::new(schedseed, 0.45);
        for t in 0..100_000u64 {
            if exec.all_returned() { break; }
            let set = sched.next(t + 1, exec.working()).unwrap();
            exec.step_with(&set);
            // Lemma 4.5 at every step: adjacent evolving identifiers differ.
            for (p, q) in topo.edges() {
                prop_assert_ne!(exec.state(p).x, exec.state(q).x, "{}-{}", p, q);
            }
        }
        prop_assert!(exec.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(exec.outputs()));
        prop_assert!(exec.outputs().iter().flatten().all(|&c| c <= 4));
    }

    #[test]
    fn crashes_never_break_safety_anywhere(
        (n, idseed, schedseed) in instance(),
        crash_mask in 0u32..0xFFFF,
    ) {
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let crashes = (0..n.min(16))
            .filter(|i| crash_mask & (1 << i) != 0)
            .map(|i| (ProcessId(i), (i as u64 % 5) + 1));
        let mut sched = CrashPlan::new(RandomSubset::new(schedseed, 0.5), crashes);
        let mut exec = Execution::new(&FiveColoring, &topo, ids);
        for t in 0..5_000u64 {
            if exec.all_returned() { break; }
            let Some(set) = sched.next(t + 1, exec.working()) else { break };
            exec.step_with(&set);
            prop_assert!(topo.is_proper_partial_coloring(exec.outputs()));
        }
        prop_assert!(exec.outputs().iter().flatten().all(|&c| c <= 4));
    }

    #[test]
    fn chain_bounds_hold_for_any_proper_input(n in 4usize..20, seed in 0u64..1000) {
        let ids = inputs::random_permutation(n, seed);
        let analysis = ChainAnalysis::for_cycle(&ids);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&SixColoring, &topo, ids);
        let report = exec.run(Synchronous::new(), 1_000_000).unwrap();
        for p in 0..n {
            prop_assert!(
                report.activations[p] <= analysis.lemma_3_9_bound(p),
                "p{}: {} > {}", p, report.activations[p], analysis.lemma_3_9_bound(p)
            );
        }
    }

    #[test]
    fn alg4_valid_on_random_graphs(
        n in 6usize..30,
        d in 3usize..6,
        seed in 0u64..1000,
    ) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let topo = Topology::random_regular(n, d, seed).unwrap();
        let ids = inputs::random_permutation(n, seed + 1);
        let mut exec = Execution::new(&DeltaSquaredColoring, &topo, ids);
        let report = exec.run(RandomSubset::new(seed + 2, 0.5), 2_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.outputs.iter().flatten().all(|c| c.weight() <= d as u64));
    }

    #[test]
    fn renaming_names_always_distinct(n in 2usize..8, idseed in 0u64..1000, schedseed in 0u64..1000) {
        use ftcolor::core::renaming::RankRenaming;
        let topo = Topology::clique(n).unwrap();
        let ids = inputs::random_unique(n, 100_000, idseed);
        let mut exec = Execution::new(&RankRenaming, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.5), 2_000_000).unwrap();
        prop_assert!(report.all_returned());
        let mut names: Vec<u64> = report.outputs.iter().flatten().copied().collect();
        let len_before = names.len();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(names.len(), len_before);
        prop_assert!(names.iter().all(|&s| s <= 2 * n as u64 - 2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn patched_alg2_always_valid_and_terminates((n, idseed, schedseed) in instance()) {
        use ftcolor::core::alg2_patched::FiveColoringPatched;
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FiveColoringPatched, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.45), 1_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.outputs.iter().flatten().all(|&c| c <= 4));
        prop_assert!(report.max_activations() <= 9 * n as u64 + 24);
    }

    #[test]
    fn patched_alg3_always_valid_and_terminates((n, idseed, schedseed) in instance()) {
        use ftcolor::core::alg3_patched::FastFiveColoringPatched;
        let ids = inputs::random_unique(n, 1 << 40, idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut exec = Execution::new(&FastFiveColoringPatched, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.45), 1_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.outputs.iter().flatten().all(|&c| c <= 4));
    }

    #[test]
    fn decoupled_three_coloring_always_valid((n, idseed, schedseed) in instance()) {
        use ftcolor::core::decoupled_ring::DecoupledThreeColoring;
        use ftcolor::model::decoupled::DecoupledExecution;
        let ids = inputs::random_unique(n, 1 << 40, idseed);
        let topo = Topology::cycle(n).unwrap();
        let alg = DecoupledThreeColoring::new();
        let mut exec = DecoupledExecution::new(&alg, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.45), 1_000_000).unwrap();
        prop_assert!(report.all_returned());
        let colors: Vec<u64> = report.outputs.iter().map(|c| c.unwrap()).collect();
        prop_assert!(topo.is_proper_coloring(&colors));
        prop_assert!(colors.iter().all(|&c| c <= 2));
    }

    #[test]
    fn stuttered_and_chained_schedules_preserve_validity(
        (n, idseed, schedseed) in instance(),
        k in 1u64..5,
    ) {
        use ftcolor::model::schedule::{Stutter, Then};
        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        // An adversarial stuttered random prefix, then a fair synchronous tail.
        let prefix_sets: Vec<Vec<usize>> = (0..10)
            .map(|i| vec![(idseed as usize + i) % n])
            .collect();
        let sched = Then::new(
            Stutter::new(FixedSequence::from_indices(prefix_sets), k),
            RandomSubset::new(schedseed, 0.5),
        );
        let mut exec = Execution::new(&SixColoring, &topo, ids);
        let report = exec.run(sched, 1_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.max_activations() <= (3 * n as u64) / 2 + 4);
    }

    #[test]
    fn alg4_valid_on_hypercubes_and_bipartite(
        d in 2usize..6,
        idseed in 0u64..500,
        schedseed in 0u64..500,
    ) {
        let topo = Topology::hypercube(d).unwrap();
        let n = topo.len();
        let ids = inputs::random_permutation(n, idseed);
        let mut exec = Execution::new(&DeltaSquaredColoring, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed, 0.5), 2_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
        prop_assert!(report.outputs.iter().flatten().all(|c| c.weight() <= d as u64));

        let topo = Topology::complete_bipartite(d, d + 1).unwrap();
        let ids = inputs::random_permutation(2 * d + 1, idseed + 1);
        let mut exec = Execution::new(&DeltaSquaredColoring, &topo, ids);
        let report = exec.run(RandomSubset::new(schedseed + 1, 0.5), 2_000_000).unwrap();
        prop_assert!(report.all_returned());
        prop_assert!(topo.is_proper_partial_coloring(&report.outputs));
    }

    #[test]
    fn trace_json_round_trip_replays_identically(
        n in 3usize..8,
        len in 1usize..40,
        traceseed in 0u64..u64::MAX / 2,
        idseed in 0u64..10_000,
    ) {
        // Serialize → deserialize → replay must reproduce the original
        // execution configuration-for-configuration, not merely parse.
        let trace = random_trace(n, len, traceseed);
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&trace, &back);

        let ids = inputs::random_unique(n, (n as u64).pow(3).max(16), idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut a = Execution::new(&FiveColoring, &topo, ids.clone());
        let mut b = Execution::new(&FiveColoring, &topo, ids);
        for (t, (sa, sb)) in trace.steps().iter().zip(back.steps()).enumerate() {
            prop_assert_eq!(sa, sb, "deserialized step {} differs", t);
            a.step_with(sa);
            b.step_with(sb);
            prop_assert_eq!(a.outputs(), b.outputs(), "outputs diverged at step {}", t);
            prop_assert_eq!(a.working(), b.working(), "working set diverged at step {}", t);
        }
        for p in topo.nodes() {
            prop_assert_eq!(a.activation_count(p), b.activation_count(p), "{}", p);
            prop_assert_eq!(
                format!("{:?}", a.state(p)),
                format!("{:?}", b.state(p)),
                "state of {} diverged after replay", p
            );
        }
    }

    #[test]
    fn executor_is_deterministic(
        (n, idseed, schedseed) in instance(),
    ) {
        // Same algorithm, topology, inputs, and schedule seed ⇒ the two
        // runs must pass through identical configuration sequences. This
        // is the foundation the model checker, the fuzzer, and the trace
        // format all rest on.
        let ids = inputs::random_unique(n, 1 << 40, idseed);
        let topo = Topology::cycle(n).unwrap();
        let mut a = Execution::new(&FastFiveColoring, &topo, ids.clone());
        let mut b = Execution::new(&FastFiveColoring, &topo, ids);
        let mut s1 = RandomSubset::new(schedseed, 0.45);
        let mut s2 = RandomSubset::new(schedseed, 0.45);
        for t in 1..=2_000u64 {
            if a.all_returned() {
                break;
            }
            let set1 = s1.next(t, a.working()).unwrap();
            let set2 = s2.next(t, b.working()).unwrap();
            prop_assert_eq!(&set1, &set2, "schedules diverged at t={}", t);
            a.step_with(&set1);
            b.step_with(&set2);
            prop_assert_eq!(a.outputs(), b.outputs(), "outputs diverged at t={}", t);
            prop_assert_eq!(a.working(), b.working(), "working set diverged at t={}", t);
        }
        prop_assert_eq!(a.all_returned(), b.all_returned());
        for p in topo.nodes() {
            prop_assert_eq!(a.activation_count(p), b.activation_count(p), "{}", p);
            prop_assert_eq!(
                format!("{:?}", a.state(p)),
                format!("{:?}", b.state(p)),
                "state of {} diverged", p
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn crash_plan_composition_respects_crash_times(
        n in 3usize..10,
        schedseed in 0u64..10_000,
        crash_mask in 1u32..0xFF,
        horizon in 20u64..120,
    ) {
        use std::collections::HashMap;
        // Crash times overlaid on an arbitrary inner schedule: process i
        // with a set mask bit crashes at a pseudo-random time within the
        // horizon.
        let crashes: Vec<(ProcessId, Time)> = (0..n)
            .filter(|i| crash_mask & (1 << (i % 8)) != 0)
            .map(|i| (ProcessId(i), (i as u64 * 13 + schedseed) % horizon + 1))
            .collect();
        let crash_at: HashMap<ProcessId, Time> = crashes.iter().copied().collect();
        let mut sched = CrashPlan::new(RandomSubset::new(schedseed, 0.7), crashes);
        let working: Vec<ProcessId> = (0..n).map(ProcessId).collect();
        let mut ended_at = None;
        for t in 1..=horizon {
            match sched.next(t, &working) {
                None => { ended_at = Some(t); break; }
                Some(set) => {
                    // A process with crash time T is never activated at
                    // any t >= T, whatever the inner schedule proposed.
                    for (&p, &tc) in &crash_at {
                        prop_assert!(
                            t < tc || !set.resolve(&working).contains(&p),
                            "{} crashed at {} but was activated at {}", p, tc, t
                        );
                    }
                }
            }
        }
        // Once every working process has crashed, the composed schedule
        // must end (return None) no later than the latest crash time.
        if crash_at.len() == n {
            let tmax = *crash_at.values().max().unwrap();
            prop_assert!(
                matches!(ended_at, Some(t) if t <= tmax),
                "all processes crash by t={} but the plan ran on (ended_at={:?})",
                tmax, ended_at
            );
        }
    }

    #[test]
    fn shrinker_is_sound_and_deterministic(
        traceseed in 0u64..u64::MAX / 2,
        len in 4usize..30,
        bound in 1u64..4,
    ) {
        use ftcolor::checker::Shrinker;
        use ftcolor::core::mis::{mis_violation, EagerMis};
        let topo = Topology::cycle(4).unwrap();
        let ids = vec![5u64, 9, 2, 1];
        let steps = random_trace(4, len, traceseed).into_steps();

        // Safety class: whenever the random schedule happens to drive
        // EagerMis into its In/In violation, the shrunk schedule must
        // reproduce the same violation class, and shrinking the same
        // witness twice gives the identical result.
        let sh = Shrinker::new(&EagerMis, &topo, ids.clone());
        if let Some(out) = sh.shrink_safety(&steps, &mis_violation) {
            let mut exec = Execution::new(&EagerMis, &topo, ids.clone());
            for set in &out.schedule {
                exec.step_with(set);
            }
            prop_assert!(
                mis_violation(&topo, exec.outputs()).is_some(),
                "shrunk witness lost the violation"
            );
            let again = sh.shrink_safety(&steps, &mis_violation).unwrap();
            prop_assert_eq!(&out.schedule, &again.schedule);
            prop_assert_eq!(out.stats, again.stats);
        }

        // Bound-overrun class: same soundness + determinism contract.
        let sh2 = Shrinker::new(&FiveColoring, &topo, ids.clone());
        if let Some(out) = sh2.shrink_overrun(&steps, bound) {
            let mut exec = Execution::new(&FiveColoring, &topo, ids.clone());
            for set in &out.schedule {
                if exec.all_returned() {
                    break;
                }
                exec.step_with(set);
            }
            let max = topo.nodes().map(|p| exec.activation_count(p)).max().unwrap();
            prop_assert!(max > bound, "shrunk witness no longer exceeds the bound");
            let again = sh2.shrink_overrun(&steps, bound).unwrap();
            prop_assert_eq!(out.schedule, again.schedule);
            prop_assert_eq!(out.stats, again.stats);
        }
    }
}

/// The next value of a splitmix64 stream.
fn splitmix(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drives two copies of `sched` over 24 steps from time `t0`, each with
/// an arbitrary sorted working set over `0..n` (empty ones included).
/// For the first 8 steps one copy answers with `next` + `resolve` and
/// the other with `next_into`, which must write exactly that (into a
/// buffer holding stale entries); the last 16 steps call `next` on
/// both, which must agree, so `next_into` left the same state behind.
fn next_into_matches_next<S: Schedule + Clone>(
    sched: &S,
    n: usize,
    t0: Time,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (mut by_next, mut by_into) = (sched.clone(), sched.clone());
    let mut s = seed;
    let mut out = vec![ProcessId(n + 3), ProcessId(0)];
    for k in 0..24 {
        let t = t0 + k;
        let mask = splitmix(&mut s);
        let working: Vec<ProcessId> = (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(ProcessId)
            .collect();
        let want = by_next.next(t, &working);
        if k < 8 {
            let got = by_into.next_into(t, &working, &mut out);
            prop_assert_eq!(
                got.then(|| out.clone()),
                want.map(|set| set.resolve(&working))
            );
        } else {
            prop_assert_eq!(by_into.next(t, &working), want);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn next_into_is_next_then_resolve(
        n in 1usize..10,
        seed in 0u64..u64::MAX / 2,
        t0 in 1u64..40,
        p_pct in 0u32..=100,
        crash_mask in 0u32..1024,
        wipe_after in 0u64..6,
    ) {
        let p = f64::from(p_pct) / 100.0;
        let random = RandomSubset::new(seed, p);
        // Some processes crash inside the 24-step window ...
        let some: Vec<(ProcessId, Time)> = (0..n)
            .filter(|i| crash_mask >> i & 1 == 1)
            .map(|i| (ProcessId(i), t0 + (seed >> (4 * i)) % 16))
            .collect();
        // ... and an overlay that crashes everyone empties every set.
        let all: Vec<(ProcessId, Time)> =
            (0..n).map(|i| (ProcessId(i), t0 + wipe_after)).collect();
        next_into_matches_next(&random, n, t0, seed)?;
        next_into_matches_next(&Synchronous::new(), n, t0, seed)?;
        next_into_matches_next(&RoundRobin::new(), n, t0, seed)?;
        for crashes in [&some, &all] {
            next_into_matches_next(&CrashPlan::new(random.clone(), crashes.clone()), n, t0, seed)?;
            next_into_matches_next(&CrashPlan::new(Synchronous::new(), crashes.clone()), n, t0, seed)?;
            next_into_matches_next(&CrashPlan::new(RoundRobin::new(), crashes.clone()), n, t0, seed)?;
        }
    }
}
