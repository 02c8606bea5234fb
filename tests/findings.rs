//! End-to-end replays of the repository's reproduction findings
//! (DESIGN.md §7) through the public facade — these tests *are* the
//! finding: if any of them starts failing, either the semantics changed
//! or the livelock was fixed, and DESIGN.md must be updated either way.

use ftcolor::checker::ModelChecker;
use ftcolor::prelude::*;

/// The minimal crash-free livelock of Algorithm 2 on C3, rediscovered
/// from scratch by exhaustive search and replayed for 10,000 steps.
#[test]
fn model_checker_rediscovers_the_c3_livelock() {
    let topo = Topology::cycle(3).unwrap();
    let outcome = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
        .explore(|topo, outs| {
            topo.first_conflict(outs)
                .map(|(a, b)| format!("conflict {a}-{b}"))
        })
        .unwrap();
    assert!(
        outcome.safety_violation.is_none(),
        "safety is unconditional"
    );
    assert!(!outcome.truncated, "C3 is fully explored");
    let lw = outcome.livelock.expect("the documented livelock");

    let mut exec = Execution::new(&FiveColoring, &topo, vec![0, 1, 2]);
    for set in &lw.prefix {
        exec.step_with(set);
    }
    let working_before = exec.working().to_vec();
    assert!(!working_before.is_empty());
    for _ in 0..10_000 / lw.cycle.len().max(1) {
        for set in &lw.cycle {
            exec.step_with(set);
        }
    }
    assert_eq!(exec.working(), working_before, "nobody ever returns");
}

/// Algorithm 1 on the same instances: certified wait-free by exhaustion
/// (no reachable cycle, no safety violation, fully explored).
#[test]
fn algorithm_1_certified_clean_on_small_cycles() {
    for ids in [
        vec![0u64, 1, 2],
        vec![9, 4, 7],
        vec![0, 1, 2, 3],
        vec![5, 0, 3, 8],
    ] {
        let topo = Topology::cycle(ids.len()).unwrap();
        let outcome = ModelChecker::new(&SixColoring, &topo, ids.clone())
            .explore(|topo, outs| {
                if let Some((a, b)) = topo.first_conflict(outs) {
                    return Some(format!("conflict {a}-{b}"));
                }
                outs.iter()
                    .flatten()
                    .find(|c| c.weight() > 2)
                    .map(|c| format!("palette violation {c}"))
            })
            .unwrap();
        assert!(outcome.clean(), "ids {ids:?}: {outcome}");
    }
}

/// The palette-attainment half of Property 2.3: across all executions on
/// C3, Algorithm 2 outputs every color in {0..4} — the 5-color palette
/// is fully used, matching the 2n−1 = 5 renaming lower bound.
#[test]
fn five_colors_attained_exhaustively_on_c3() {
    let topo = Topology::cycle(3).unwrap();
    let outcome = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
        .explore(|_, _| None)
        .unwrap();
    let mut seen = outcome.outputs_seen.clone();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1, 2, 3, 4], "all five colors attained");
}

/// The candidate repair survives the exact adversaries that kill the
/// original, end-to-end through the facade.
#[test]
fn patched_algorithm_2_escapes_the_documented_adversaries() {
    use ftcolor::core::alg2_patched::FiveColoringPatched;
    let topo = Topology::cycle(3).unwrap();

    // (1) replay the model checker's livelock witness for the ORIGINAL
    // algorithm against the PATCHED one: it must terminate.
    let outcome = ModelChecker::new(&FiveColoring, &topo, vec![0, 1, 2])
        .explore(|_, _| None)
        .unwrap();
    let lw = outcome.livelock.expect("original livelock");
    let mut exec = Execution::new(&FiveColoringPatched, &topo, vec![0, 1, 2]);
    for set in &lw.prefix {
        exec.step_with(set);
    }
    for _ in 0..200 {
        if exec.all_returned() {
            break;
        }
        for set in &lw.cycle {
            exec.step_with(set);
        }
    }
    assert!(exec.all_returned(), "patched algorithm must escape");
    assert!(topo.is_proper_partial_coloring(exec.outputs()));
    assert!(exec.outputs().iter().flatten().all(|&c| c <= 4));

    // (2) a bounded exhaustive search finds no livelock (none exists, by
    // the monotone-counter argument) and no safety violation.
    let outcome = ModelChecker::new(&FiveColoringPatched, &topo, vec![0, 1, 2])
        .with_max_configs(200_000)
        .explore(|topo, outs| {
            if let Some((a, b)) = topo.first_conflict(outs) {
                return Some(format!("conflict {a}-{b}"));
            }
            outs.iter()
                .flatten()
                .find(|&&c| c > 4)
                .map(|c| format!("palette violation {c}"))
        })
        .unwrap();
    assert!(outcome.safety_violation.is_none());
    assert!(outcome.livelock.is_none());
}

/// The candidate repair is not wait-free either: on C4 with ids
/// `[0,1,2,3]` a fair schedule returns to its configuration with every
/// update counter raised by 2, so it repeats forever. No configuration
/// ever repeats exactly (the counters only grow), which is why the
/// model checker, which finds exact repeats only, cannot see it.
#[test]
fn patched_algorithm_2_diverges_on_c4_up_to_a_counter_shift() {
    use ftcolor::core::alg2_patched::{FiveColoringPatched, Reg2P, State2P};
    const PREFIX: [&[usize]; 13] = [
        &[1, 2],
        &[0, 2],
        &[0, 1, 3],
        &[1, 3],
        &[0, 1, 2],
        &[1, 3],
        &[1, 2],
        &[1],
        &[0, 1, 2, 3],
        &[0, 1],
        &[1, 2],
        &[1],
        &[0, 1, 2, 3],
    ];
    const CYCLE: [&[usize]; 7] = [&[1], &[0, 1, 2], &[0], &[1], &[0, 1, 3], &[0, 2, 3], &[1]];
    const SHIFT: u64 = 2;
    const LAPS: u64 = 1_000;
    let topo = Topology::cycle(4).unwrap();
    let mut exec = Execution::new(&FiveColoringPatched, &topo, vec![0, 1, 2, 3]);
    let step = |exec: &mut Execution<'_, FiveColoringPatched>, ps: &[usize]| {
        exec.step_with(&ActivationSet::of(ps.iter().map(|&p| ProcessId(p))))
    };
    let states = |exec: &Execution<'_, FiveColoringPatched>| -> Vec<State2P> {
        topo.nodes().map(|p| exec.state(p).clone()).collect()
    };
    let abc = |exec: &Execution<'_, FiveColoringPatched>| -> Vec<(u64, u64, u64)> {
        states(exec)
            .iter()
            .map(|s| (s.reg.a, s.reg.b, s.reg.c))
            .collect()
    };
    // Every counter of a state: its own, and each copy in `last_view`.
    let shifted = |mut s: State2P| {
        s.reg.c += SHIFT;
        for reg in s.last_view.iter_mut().flat_map(|v| v.iter_mut()).flatten() {
            reg.c += SHIFT;
        }
        s
    };
    for ps in PREFIX {
        step(&mut exec, ps);
    }
    assert_eq!(abc(&exec), [(2, 2, 4), (1, 1, 6), (0, 3, 6), (0, 3, 4)]);
    for lap in 0..LAPS {
        let before = states(&exec);
        let regs_before = exec.registers().to_vec();
        assert!(
            before.iter().all(|s| s.last_view.is_some()),
            "lap {lap}: every process has a view to shift"
        );
        let mut activated = [false; 4];
        for ps in CYCLE {
            for p in step(&mut exec, ps) {
                activated[p.index()] = true;
            }
        }
        assert_eq!(activated, [true; 4], "lap {lap}: the lap is fair");
        let want: Vec<State2P> = before.into_iter().map(shifted).collect();
        assert_eq!(states(&exec), want, "lap {lap}: a shift by {SHIFT}");
        let regs: Vec<_> = regs_before
            .iter()
            .map(|r| {
                r.map(|r| Reg2P {
                    c: r.c + SHIFT,
                    ..r
                })
            })
            .collect();
        assert_eq!(exec.registers(), regs, "lap {lap}: registers shift too");
        assert_eq!(exec.working().len(), 4, "lap {lap}: all still working");
        assert!(exec.outputs().iter().all(Option::is_none), "lap {lap}");
    }
    let c = 2 * LAPS;
    assert_eq!(
        abc(&exec),
        [(2, 2, 4 + c), (1, 1, 6 + c), (0, 3, 6 + c), (0, 3, 4 + c)]
    );
}

/// The adaptive adversary expresses the livelock strategy generically:
/// "run the smallest identifier solo until it returns, then lockstep the
/// rest" — starving the original Algorithm 2 from *any* C3 instance.
#[test]
fn adaptive_adversary_starves_original_alg2_generically() {
    let topo = Topology::cycle(3).unwrap();
    for ids in [vec![0u64, 1, 2], vec![7, 3, 12], vec![100, 5, 51]] {
        let min_pos = (0..3).min_by_key(|&i| ids[i]).unwrap();
        let mut exec = Execution::new(&FiveColoring, &topo, ids.clone());
        let err = exec.run_adaptive(
            |e| {
                if e.outputs()[min_pos].is_none() {
                    Some(ActivationSet::solo(ProcessId(min_pos)))
                } else {
                    Some(ActivationSet::of(e.working().to_vec()))
                }
            },
            2_000,
        );
        assert!(
            matches!(err, Err(ftcolor::model::ModelError::NonTermination { .. })),
            "ids {ids:?}: expected starvation, got {err:?}"
        );
    }
}

/// The Algorithm 3 variant of the livelock, plus its clean safety story.
#[test]
fn algorithm_3_inherits_the_livelock_but_stays_safe() {
    let topo = Topology::cycle(3).unwrap();
    let outcome = ModelChecker::new(&FastFiveColoring, &topo, vec![10, 20, 30])
        .explore(|topo, outs| {
            if let Some((a, b)) = topo.first_conflict(outs) {
                return Some(format!("conflict {a}-{b}"));
            }
            outs.iter()
                .flatten()
                .find(|&&c| c > 4)
                .map(|c| format!("palette violation {c}"))
        })
        .unwrap();
    assert!(outcome.safety_violation.is_none());
    assert!(outcome.livelock.is_some(), "inherited from Algorithm 2");
}
